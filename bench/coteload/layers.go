package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cote/bench"
	"cote/internal/core"
	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/fingerprint"
	"cote/internal/memo"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/query"
	"cote/internal/service"
	"cote/internal/sqlparser"
)

// maxTraceRounds is the traced run's length: two rounds already give every layer
// thousands of spans, and the span file stays small enough to read.
const maxTraceRounds = 2

// microRepeat is how often a sub-microsecond call is repeated inside one
// span, so that the clock's resolution does not dominate it.
const microRepeat = 16

// counts are the program's own counters and timers a traced run sums up.
// The counters depend on the seed only and must repeat exactly from run to
// run.
type counts struct {
	requests                            int
	sqlBytes                            int
	pairs, joins, visited, skipped      int
	entries                             int
	plansCounted                        int
	measuredPeakBytes                   int64
	plansGenerated, pilotPruned, allGen int
	plansKept                           int
	optPeakBytes                        int64
	planCountAbsErr                     int
	genTime                             [props.NumJoinMethods]time.Duration
	saveTime, accessTime                time.Duration
	cacheHits, cacheMisses              int64
}

// traceRun produces the per-layer metrics. One round is three sweeps over
// the pass: the real ServeHTTP call (the only span measured in place), the
// same requests through Server.Estimate or Server.Optimize directly, and
// the same requests through each layer's public functions. Sweeps, not
// per-request replays, because on the cold workloads a request repeated at
// once would hit the cache that the real one missed.
func traceRun(e *env, smoke bool, outDir string, probe *hostProbe) (map[string]metric, *result, error) {
	refStart := refKernel()
	var allocUS []float64
	reqs, err := decodeRequests(e.set)
	if err != nil {
		return nil, nil, err
	}
	harnessAllocs := harnessAllocsPerReq(e)

	res := &result{}
	lat := make([]time.Duration, len(e.set.Pass))
	e.runPass(lat, res, nil)
	untracedP50 := p50US(lat)

	tr := bench.NewTrace()
	var cn counts
	var tracedP50 float64
	mem := memo.New(0)
	rounds := maxTraceRounds
	if smoke {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		start := time.Now()
		base := round * len(e.set.Pass)
		hits0, misses0 := e.srv.Metrics().CacheHits.Value(), e.srv.Metrics().CacheMisses.Value()
		e.runPass(lat, res, func(i int, t0, t1 time.Time) { tr.Real(base+i, "service.http", t0, t1) })
		cn.cacheHits += e.srv.Metrics().CacheHits.Value() - hits0
		cn.cacheMisses += e.srv.Metrics().CacheMisses.Value() - misses0
		tracedP50 = p50US(lat)
		if err := e.pipelineSweep(tr, base, reqs); err != nil {
			return nil, nil, err
		}
		if err := e.layerSweep(tr, base, reqs, mem, &cn); err != nil {
			return nil, nil, err
		}
		if allocUS, err = probe.sample(allocUS, time.Since(start)); err != nil {
			return nil, nil, err
		}
	}

	loopback := loopbackP50(e, lat)
	refEnd := refKernel()
	if err := tr.WriteFile(filepath.Join(outDir, "trace-"+e.w.Name+".json")); err != nil {
		return nil, nil, fmt.Errorf("span file: %w", err)
	}

	st := bench.SelfTimes(tr.Spans)
	n := float64(cn.requests)
	per := func(v float64) float64 { return v / n }
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{
		"service.http_self_us":             {st["service.http"].SelfUS(), "us"},
		"service.pipeline_self_us":         {st["service.pipeline"].SelfUS(), "us"},
		"service.cache_hit_ratio":          {ratio(float64(cn.cacheHits), float64(cn.cacheHits+cn.cacheMisses)), "ratio"},
		"service.cache_hit_us":             {st["service.cache_hit"].MeanUS() / microRepeat, "us"},
		"http.loopback_us":                 {loopback, "us"},
		"sqlparser.parse_us":               {st["sqlparser.parse"].MeanUS(), "us"},
		"sqlparser.sql_bytes_per_req":      {per(float64(cn.sqlBytes)), "B"},
		"fingerprint.of_us":                {st["fingerprint.of"].MeanUS(), "us"},
		"fingerprint.canonical_us":         {st["fingerprint.canonical"].MeanUS(), "us"},
		"enum.run_us":                      {st["enum.run"].MeanUS(), "us"},
		"enum.pairs_per_req":               {per(float64(cn.pairs)), "count"},
		"enum.joins_per_req":               {per(float64(cn.joins)), "count"},
		"enum.candidates_visited_per_req":  {per(float64(cn.visited)), "count"},
		"enum.candidates_skipped_per_req":  {per(float64(cn.skipped)), "count"},
		"enum.skip_ratio":                  {ratio(float64(cn.skipped), float64(cn.visited+cn.skipped)), "ratio"},
		"enum.useful_ratio":                {ratio(float64(cn.pairs), float64(cn.visited)), "ratio"},
		"core.estimate_us":                 {st["core.estimate"].MeanUS(), "us"},
		"core.count_self_us":               {st["core.estimate"].SelfUS(), "us"},
		"core.plans_counted_per_req":       {per(float64(cn.plansCounted)), "count"},
		"core.measured_peak_bytes_per_req": {per(float64(cn.measuredPeakBytes)), "B"},
		"core.model_apply_us":              {st["core.model_apply"].MeanUS() / microRepeat, "us"},
		"memo.entries_per_req":             {per(float64(cn.entries)), "count"},
		"opt.optimize_us":                  {st["opt.optimize"].MeanUS(), "us"},
		"plangen.gen_us.mgjn":              {us(cn.genTime[props.MGJN]), "us"},
		"plangen.gen_us.nljn":              {us(cn.genTime[props.NLJN]), "us"},
		"plangen.gen_us.hsjn":              {us(cn.genTime[props.HSJN]), "us"},
		"plangen.save_us":                  {us(cn.saveTime), "us"},
		"plangen.access_us":                {us(cn.accessTime), "us"},
		"plangen.plans_generated_per_req":  {per(float64(cn.plansGenerated)), "count"},
		"plangen.pilot_pruned_per_req":     {per(float64(cn.pilotPruned)), "count"},
		"memo.plans_kept_per_req":          {per(float64(cn.plansKept)), "count"},
		"memo.keep_ratio":                  {ratio(float64(cn.plansKept), float64(cn.allGen)), "ratio"},
		"opt.peak_bytes_per_req":           {per(float64(cn.optPeakBytes)), "B"},
		"core.overhead_pct":                {100 * ratio(st["core.estimate"].Total.Seconds(), st["opt.optimize"].Total.Seconds()), "%"},
		"core.plancount_err_pct":           {100 * ratio(float64(cn.planCountAbsErr), float64(cn.plansGenerated)), "%"},
		"host.ref_kernel_us":               {(refStart + refEnd) / 2, "us"},
		"host.ref_kernel_drift_pct":        {100 * (refEnd - refStart) / refStart, "%"},
		"host.ref_alloc_us":                {trimmedMean(allocUS), "us"},
		"host.speed_factor":                {speedFactor(allocUS), "ratio"},
		"host.rss_peak_mb":                 {rssPeakMB(), "MiB"},
		"harness.allocs_per_req":           {harnessAllocs, "count"},
		"trace.overhead_pct":               {100 * (tracedP50 - untracedP50) / untracedP50, "%"},
		"trace.spans":                      {float64(len(tr.Spans)), "count"},
	}
	return m, res, nil
}

func p50US(lat []time.Duration) float64 {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantileUS(s, 0.5)
}

// request is a request body decoded once, for the sweeps that bypass HTTP.
type request struct {
	Catalog string `json:"catalog"`
	SQL     string `json:"sql"`
	Level   string `json:"level"`
}

func decodeRequests(set *bench.Set) ([]request, error) {
	reqs := make([]request, len(set.Pass))
	for i, rq := range set.Pass {
		if err := json.Unmarshal(rq.Body, &reqs[i]); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return reqs, nil
}

// pipelineSweep calls the endpoint's method on the server directly: what
// ServeHTTP costs beyond it is the mux and the JSON decode and encode.
func (e *env) pipelineSweep(tr *bench.Trace, base int, reqs []request) error {
	ctx := context.Background()
	for i, r := range reqs {
		var err error
		t0 := time.Now()
		if e.w.Path == "/v1/optimize" {
			_, err = e.srv.Optimize(ctx, service.OptimizeRequest{Catalog: r.Catalog, SQL: r.SQL, Level: r.Level})
		} else {
			_, err = e.srv.Estimate(ctx, service.EstimateRequest{Catalog: r.Catalog, SQL: r.SQL, Level: r.Level})
		}
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("request %d, direct call: %w", i, err)
		}
		tr.Replay(base+i, "service.pipeline", "service.http", d)
	}
	return nil
}

// layerSweep runs each request through the public function of every layer
// the server runs for it, in the server's order, and collects the layers'
// own counters.
func (e *env) layerSweep(tr *bench.Trace, base int, reqs []request, mem *memo.Memo, cn *counts) error {
	optimize := e.w.Path == "/v1/optimize"
	// A server-side cache hit stops after the fingerprint; a miss goes on to
	// the canonical rebuild and the estimate. On the optimize path the server
	// estimates once per structure and then serves the estimate from its
	// cache, so there the estimate's layers stand alone and feed the paper's
	// overhead ratio only.
	estimateParent := "service.pipeline"
	if optimize {
		estimateParent = ""
	}
	cache := service.NewEstimateCache(1024)
	var est *core.Estimate
	if e.w.Cached {
		// The warm workload's server never estimates inside the window; one
		// untimed estimate gives microSteps something to look up and price.
		blk, err := sqlparser.Parse(reqs[0].SQL, e.entry.Catalog)
		if err != nil {
			return err
		}
		if est, err = core.EstimatePlansCtx(context.Background(), blk, e.estimateOptions()); err != nil {
			return err
		}
	}
	for i, r := range reqs {
		id := base + i
		cn.requests++
		cn.sqlBytes += len(r.SQL)

		t := time.Now()
		blk, err := sqlparser.Parse(r.SQL, e.entry.Catalog)
		tr.Replay(id, "sqlparser.parse", "service.pipeline", time.Since(t))
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		t = time.Now()
		fp := fingerprint.Of(blk)
		tr.Replay(id, "fingerprint.of", "service.pipeline", time.Since(t))

		if !e.w.Cached {
			if est, err = e.estimateLayers(tr, id, estimateParent, blk, mem, cn); err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
		}
		if optimize {
			err = e.optimizeLayer(tr, id, blk, est, cn)
		} else {
			err = e.microSteps(tr, id, cache, fp, est)
		}
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}

func (e *env) estimateOptions() core.Options {
	return core.Options{Level: opt.LevelHigh, Config: e.entry.Config}
}

// estimateLayers is what a cache miss runs after the fingerprint: the
// canonical rebuild, the estimate, and inside it the enumeration, here run
// once more with empty hooks to time it alone.
func (e *env) estimateLayers(tr *bench.Trace, id int, parent string, blk *query.Block, mem *memo.Memo, cn *counts) (*core.Estimate, error) {
	t := time.Now()
	canon, _, err := fingerprint.Canonical(blk)
	dCanon := time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	est, err := core.EstimatePlansCtx(context.Background(), canon, e.estimateOptions())
	dEst := time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	mem.Reset(canon.NumTables())
	st, err := enum.New(canon, mem, cost.NewEstimator(canon, cost.Simple), opt.LevelHigh.EnumOptions()).Run(enum.Hooks{})
	dEnum := time.Since(t)
	if err != nil {
		return nil, err
	}
	tr.Replay(id, "fingerprint.canonical", parent, dCanon)
	tr.Replay(id, "core.estimate", parent, dEst)
	tr.Replay(id, "enum.run", "core.estimate", dEnum)
	cn.pairs += st.Pairs
	cn.joins += st.Joins
	cn.visited += st.CandidatesVisited
	cn.skipped += st.CandidatesSkipped
	cn.entries += st.Entries
	cn.plansCounted += est.Counts.Total()
	cn.measuredPeakBytes += est.MeasuredPeakBytes
	return est, nil
}

// optimizeLayer is the real compile, with the optimizer's own counters and
// its own split of where the time went (the paper's Figure 2).
func (e *env) optimizeLayer(tr *bench.Trace, id int, blk *query.Block, est *core.Estimate, cn *counts) error {
	t := time.Now()
	res, err := opt.OptimizeCtx(context.Background(), blk, opt.Options{Level: opt.LevelHigh, Config: e.entry.Config})
	tr.Replay(id, "opt.optimize", "service.pipeline", time.Since(t))
	if err != nil {
		return err
	}
	c := res.TotalCounters()
	cn.plansGenerated += c.TotalGenerated()
	cn.allGen += c.TotalGenerated() + c.AccessPlans + c.EnforcerPlans
	cn.pilotPruned += c.PilotPruned
	for _, b := range res.Blocks {
		cn.plansKept += b.Memo.NumPlans()
	}
	cn.optPeakBytes += res.Resources.DurablePeakBytes
	for m := range c.GenTime {
		cn.genTime[m] += c.GenTime[m]
		cn.planCountAbsErr += abs(est.Counts.ByMethod[m] - c.Generated[m])
	}
	cn.saveTime += c.SaveTime
	cn.accessTime += c.AccessTime
	return nil
}

// microSteps times the two steps of the estimate path too short to time
// singly: a lookup of a present key, and pricing an estimate with the
// models.
func (e *env) microSteps(tr *bench.Trace, id int, cache *service.EstimateCache, fp fingerprint.FP, est *core.Estimate) error {
	ctx := context.Background()
	key := service.EstimateKey{Epoch: e.entry.Epoch, FP: fp, Level: opt.LevelHigh, Nodes: e.entry.Config.Nodes}
	fill := func() (*core.Estimate, error) { return est, nil }
	if _, _, _, err := cache.Do(ctx, key, fill); err != nil {
		return err
	}
	t := time.Now()
	for k := 0; k < microRepeat; k++ {
		if _, hit, _, _ := cache.Do(ctx, key, fill); !hit {
			return fmt.Errorf("a present key missed the cache")
		}
	}
	tr.Replay(id, "service.cache_hit", "", time.Since(t))
	t = time.Now()
	for k := 0; k < microRepeat; k++ {
		out := *est
		if m := e.srv.Model(); m != nil {
			out.PredictedTime = m.Predict(out.Counts)
		}
		out.PredictedPeakBytes = core.EstimateMemory(&out, core.DefaultMemModel())
		sink += uint64(out.PredictedPeakBytes)
	}
	tr.Replay(id, "core.model_apply", "", time.Since(t))
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// harnessAllocsPerReq runs the client's loop against a handler that does
// nothing: the allocations left are the harness's own share of
// allocs_per_req.
func harnessAllocsPerReq(e *env) float64 {
	canned := []byte(`{"cached": true}`)
	c := newClient(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(canned)
	}), e.w.Path)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rq := range e.set.Pass {
		_, body := c.do(rq)
		sink += uint64(len(body))
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(e.set.Pass))
}

// loopbackP50 sends one pass over a real loopback connection and returns
// the median latency, so that users can see what transport adds to
// latency_p50_us. It returns 0 where the sandbox allows no listener.
func loopbackP50(e *env, lat []time.Duration) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	hs := &http.Server{Handler: e.srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns once Close is called below
	}()
	defer func() {
		_ = hs.Close()
		<-done
	}()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + e.w.Path
	for i, rq := range e.set.Pass {
		t0 := time.Now()
		resp, err := hc.Post(url, "application/json", bytes.NewReader(rq.Body))
		if err != nil {
			return 0
		}
		_, _ = io.Copy(io.Discard, resp.Body) // a short read only shortens the sample
		_ = resp.Body.Close()                 // only read
		lat[i] = time.Since(t0)
	}
	return p50US(lat)
}
