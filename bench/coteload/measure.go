package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"syscall"
	"time"

	"cote/bench"
	"cote/internal/service"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one set-up: generated inputs, a fresh server with the catalog
// uploaded, and its cache filled by one pass over the working set.
type env struct {
	w      bench.Workload
	set    *bench.Set
	srv    *service.Server
	entry  *service.RegistryEntry
	c      *client
	took   time.Duration
	digest string // of the warm-up pass's responses
}

// setUp does everything that precedes the first measured request. The
// warm-up pass sends every request of the working set once; its responses
// feed the response digest, so the digest costs the measured window nothing.
func setUp(w bench.Workload, seed int64) (*env, error) {
	start := time.Now()
	set, err := bench.Generate(w, seed)
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{})
	entry, err := srv.Registry().Register(bench.Catalog())
	if err != nil {
		return nil, fmt.Errorf("catalog upload: %w", err)
	}
	e := &env{w: w, set: set, srv: srv, entry: entry, c: newClient(srv.Handler(), w.Path)}
	digest := bench.NewDigest()
	for i, rq := range set.Pass {
		status, body := e.c.do(rq)
		if status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request %d: status %d: %.200s", i, status, body)
		}
		if err := digest.Add(body); err != nil {
			return nil, err
		}
	}
	e.digest = digest.Sum()
	e.took = time.Since(start)
	return e, nil
}

// passStat is what one measured pass over the working set cost.
type passStat struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	ok             int
}

// result is the outcome of the measured window.
type result struct {
	passes    []passStat
	latencies []time.Duration // every request, sorted
	attempted int
	failed    int
	firstErr  error
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass sends one pass, checks every response against the answer key and
// writes each request's latency into lat. observe, when non-nil, sees each
// request's start and end (the traced run records its spans there).
func (e *env) runPass(lat []time.Duration, res *result, observe func(i int, start, end time.Time)) passStat {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	ps := passStat{}
	for i, rq := range e.set.Pass {
		t0 := time.Now()
		status, body := e.c.do(rq)
		t1 := time.Now()
		lat[i] = t1.Sub(t0)
		if err := bench.Check(e.w, e.set.Structures[rq.Structure], status, body); err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("request %d: %w", i, err)
			}
		} else {
			ps.ok++
		}
		if observe != nil {
			observe(i, t0, t1)
		}
	}
	ps.wall = time.Since(start)
	ps.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	ps.mallocs = after.Mallocs - before.Mallocs
	ps.bytes = after.TotalAlloc - before.TotalAlloc
	res.attempted += len(e.set.Pass)
	return ps
}

// measure runs the window: a fixed number of whole passes, so that two runs
// of one workload send the same requests whatever the host's speed, and
// every pass does the same work. The host's speed is sampled between
// passes, after every probeEvery of measured work and after the last pass,
// outside the passes' own clocks and counters; the samples are returned.
func (e *env) measure(passes int, probe *hostProbe) (*result, []float64, error) {
	res := &result{}
	lat := make([]time.Duration, len(e.set.Pass))
	var allocUS []float64
	var since time.Duration
	for i := 0; i < passes; i++ {
		ps := e.runPass(lat, res, nil)
		res.passes = append(res.passes, ps)
		res.latencies = append(res.latencies, lat...)
		if since += ps.wall; since >= probeEvery || i == passes-1 {
			var err error
			if allocUS, err = probe.sample(allocUS, since); err != nil {
				return nil, nil, err
			}
			since = 0
		}
	}
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	return res, allocUS, nil
}

// quantile of sorted durations, in microseconds.
func quantileUS(sorted []time.Duration, q float64) float64 {
	return float64(sorted[int(q*float64(len(sorted)-1))].Nanoseconds()) / 1e3
}

// medianOf is the median over passes of f.
func medianOf(passes []passStat, f func(passStat) float64) float64 {
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = f(p)
	}
	return median(v)
}

// rawTimes are the window's times as the clock gave them. Latency quantiles
// are over every request of the window; the per-request rates are medians
// over passes, so that one disturbed pass does not move them.
func rawTimes(e *env, res *result, setupS float64) map[string]metric {
	n := float64(len(e.set.Pass))
	return map[string]metric{
		"latency_p50_us": {quantileUS(res.latencies, 0.50), "us"},
		"latency_p99_us": {quantileUS(res.latencies, 0.99), "us"},
		"throughput_rps": {medianOf(res.passes, func(p passStat) float64 { return float64(p.ok) / p.wall.Seconds() }), "1/s"},
		"cpu_us_per_req": {medianOf(res.passes, func(p passStat) float64 { return float64(p.cpu.Nanoseconds()) / 1e3 / n }), "us"},
		"setup_s":        {setupS, "s"},
	}
}

// endToEnd turns the measured window into the end-to-end metrics: the raw
// times scaled to the quiet host's speed (see hostProbe), and the
// allocation counts, which need no scaling.
func endToEnd(e *env, res *result, raw map[string]metric, windowFactor, setupFactor float64) map[string]metric {
	n := float64(len(e.set.Pass))
	return map[string]metric{
		"latency_p50_norm_us": {raw["latency_p50_us"].Value * windowFactor, "us"},
		"latency_p99_norm_us": {raw["latency_p99_us"].Value * windowFactor, "us"},
		"throughput_norm_rps": {raw["throughput_rps"].Value / windowFactor, "1/s"},
		"cpu_norm_us_per_req": {raw["cpu_us_per_req"].Value * windowFactor, "us"},
		"allocs_per_req":      {medianOf(res.passes, func(p passStat) float64 { return float64(p.mallocs) / n }), "count"},
		"alloc_kb_per_req":    {medianOf(res.passes, func(p passStat) float64 { return float64(p.bytes) / 1024 / n }), "KiB"},
		"setup_s":             {raw["setup_s"].Value * setupFactor, "s"},
	}
}
