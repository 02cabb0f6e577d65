package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"cote/internal/calib"
	"cote/internal/core"
	"cote/internal/faultinject"
	"cote/internal/fingerprint"
	"cote/internal/knobs"
	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/query"
	"cote/internal/sqlparser"
)

// The statement pipeline: Estimate, EstimateBatch and Optimize compose
// begin → resolve → parse → estimate → price (DESIGN.md §9 has the table).
// Each SQL text is parsed and analyzed exactly once per request, and each
// (statement, level) reaches the cache at most once per request.

// statementArenas is the pool of statement arenas (DESIGN.md §16): a request
// parses its statements into one arena, a miss rebuilds the canonical block
// into the same one, and the endpoint method that took it gives it back when
// it returns. Nothing the request hands out — responses, cached estimates,
// calibration observations — points into it.
var statementArenas = sync.Pool{New: func() any { return new(query.Arena) }}

// takeArena takes a statement arena for one request.
func takeArena() *query.Arena { return statementArenas.Get().(*query.Arena) }

// releaseArena recycles a request's arena as the endpoint method returns.
// Every run the request started has returned by then (Run calls fn on the
// request's own goroutine), so nothing reads the arena's blocks any more.
func (s *Server) releaseArena(a *query.Arena) {
	a.Reset()
	statementArenas.Put(a)
	if s.arenaReleased != nil {
		s.arenaReleased(a)
	}
}

// begin is the request prelude. Shedding comes first — an overloaded server
// spends nothing on a request it will refuse anyway — and runs before the
// request's own timeout is attached, so the deadline it tests is whatever
// the client (or HTTP layer) brought along.
func (s *Server) begin(ctx context.Context, requests *Counter) (context.Context, context.CancelFunc, time.Time, error) {
	requests.Add()
	if err := s.shed.Admit(ctx); err != nil {
		s.metrics.ShedRequests.Add()
		return nil, nil, time.Time{}, err
	}
	start := time.Now()
	if s.cfg.RequestTimeout <= 0 {
		return ctx, func() {}, start, nil
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	return ctx, cancel, start, nil
}

// observe records one unit of served work, begun at start, in an endpoint's
// latency histogram and in the shedder's service-time EWMA — the average
// that prices the drain estimate and Retry-After.
func (s *Server) observe(latency *Histogram, start time.Time) {
	d := time.Since(start)
	latency.Observe(d)
	s.shed.observe(d)
}

// resolve looks up the catalog and level every request names.
func (s *Server) resolve(catalogName, levelName string) (*RegistryEntry, opt.Level, error) {
	if catalogName == "" {
		return nil, 0, badRequest("missing catalog")
	}
	entry, err := s.registry.Get(catalogName)
	if err != nil {
		return nil, 0, notFound("%v", err)
	}
	level, err := ParseLevel(levelName)
	if err != nil {
		return nil, 0, badRequest("%v", err)
	}
	return entry, level, nil
}

// stmt is one parsed statement: what the later stages need of it, computed
// once per SQL text. Its block lives in the request's arena, which a miss
// also rebuilds the canonical block into.
type stmt struct {
	entry    *RegistryEntry
	arena    *query.Arena
	blk      *query.Block
	analysis fingerprint.Analysis
}

// parse turns one SQL text into a stmt carved from the request's arena.
func (s *Server) parse(arena *query.Arena, entry *RegistryEntry, sql string) (stmt, error) {
	if sql == "" {
		return stmt{}, badRequest("missing sql")
	}
	parseStart := time.Now()
	blk, err := sqlparser.ParseIn(arena, sql, entry.Catalog)
	s.metrics.ObserveStage(optctx.StageParse, 1, time.Since(parseStart))
	if err != nil {
		return stmt{}, parseFailed(err)
	}
	return stmt{entry: entry, arena: arena, blk: blk, analysis: fingerprint.Analyze(blk)}, nil
}

// estimate returns the estimate of one (statement, level) through the
// fingerprint-keyed cache, with concurrent identical misses collapsed into
// one enumeration by the cache's single-flight group. A miss estimates the
// canonical rebuild of the statement (raw-block enumeration counts are
// numbering-sensitive; see internal/fingerprint). Cached estimates carry no
// prediction (see EstimateCache); callers price them.
//
// The returned cached flag reports that this request ran no enumeration of
// its own — an LRU hit or a wait on another request's in-flight run.
func (s *Server) estimate(ctx context.Context, st stmt, level opt.Level) (*core.Estimate, bool, error) {
	key := EstimateKey{Epoch: st.entry.Epoch, FP: st.analysis.FP, Level: level, Nodes: st.entry.Config.Nodes}
	est, hit, shared, err := s.cache.Do(ctx, key, func() (*core.Estimate, error) {
		// The fill is the flight's one side-effectful step: an injected fault
		// fails the leader before it takes a pool slot or enumerates and,
		// exactly like a real failure, reaches every waiter sharing the flight
		// while caching nothing.
		if err := faultinject.Check(faultinject.PointCacheFill); err != nil {
			return nil, err
		}
		// The miss path is the only place the canonical block is rebuilt.
		est, err := Run(s.pool, ctx, func() (*core.Estimate, error) {
			if s.missStarted != nil {
				s.missStarted()
			}
			canon, err := st.analysis.CanonicalIn(st.arena)
			if err != nil {
				return nil, err
			}
			return core.EstimatePlansCtx(ctx, canon, core.Options{Level: level, Config: st.entry.Config})
		})
		if err == nil {
			// The enumerate stage moves only when an enumeration really ran:
			// the warm-path zero-enumeration guarantee is asserted on this
			// counter.
			s.metrics.ObserveStage(optctx.StageEnumerate, int64(est.Joins), est.Elapsed)
			s.metrics.EnumCandidatesVisited.AddN(int64(est.CandidatesVisited))
			s.metrics.EnumCandidatesSkipped.AddN(int64(est.CandidatesSkipped))
		}
		return est, err
	})
	if err != nil {
		return nil, false, err
	}
	switch {
	case hit:
		s.metrics.CacheHits.Add()
	case shared:
		s.metrics.SharedFlights.Add()
	default:
		s.metrics.CacheMisses.Add()
	}
	return est, hit || shared, nil
}

// price returns a copy of est priced by model version v (nil before any
// install; the structural default memory model before any memory
// calibration). Predictions are never stored, only the structural counts,
// so a model swap can never serve a stale one from the cache.
func price(est *core.Estimate, v *calib.ModelVersion) core.Estimate {
	out := *est
	out.PredictedTime = 0
	var mem *core.MemModel // nil: the structural default
	if v != nil {
		if v.Model != nil {
			out.PredictedTime = v.Model.Predict(out.Counts)
		}
		mem = v.Mem
	}
	out.PredictedPeakBytes = core.EstimateMemory(&out, mem)
	return out
}

// EstimateRequest is the body of POST /v1/estimate.
type EstimateRequest struct {
	Catalog string `json:"catalog"`
	SQL     string `json:"sql"`
	Level   string `json:"level,omitempty"`
}

// EstimateResponse is the reply: the estimate plus cache provenance. The
// predicted fields inside the estimate are filled from the server's
// current model; ModelVersion names the registry version that priced them
// (zero when no model is installed), so clients can tell which model a
// cached estimate was re-priced with.
type EstimateResponse struct {
	Catalog      string         `json:"catalog"`
	Level        string         `json:"level"`
	Cached       bool           `json:"cached"`
	ModelVersion int            `json:"model_version,omitempty"`
	Estimate     *core.Estimate `json:"estimate"`
}

// Estimate runs the paper's plan-estimate mode for one request.
func (s *Server) Estimate(ctx context.Context, req EstimateRequest) (*EstimateResponse, error) {
	ctx, cancel, start, err := s.begin(ctx, &s.metrics.EstimateRequests)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer s.observe(&s.metrics.EstimateLatency, start)

	entry, level, err := s.resolve(req.Catalog, req.Level)
	if err != nil {
		return nil, err
	}
	arena := takeArena()
	defer s.releaseArena(arena)
	st, err := s.parse(arena, entry, req.SQL)
	if err != nil {
		return nil, err
	}
	est, cached, err := s.estimate(ctx, st, level)
	if err != nil {
		return nil, err
	}
	v := s.models.Current()
	out := price(est, v)
	resp := &EstimateResponse{Catalog: entry.Name, Level: LevelName(level), Cached: cached, Estimate: &out}
	if v != nil {
		resp.ModelVersion = v.Version
	}
	return resp, nil
}

// EstimateBatchRequest is the body of POST /v1/estimate/batch: many
// statements against one catalog and level, estimated once per distinct
// structure.
type EstimateBatchRequest struct {
	Catalog    string   `json:"catalog"`
	Statements []string `json:"statements"`
	Level      string   `json:"level,omitempty"`
}

// BatchItem is the per-statement outcome, in submission order.
type BatchItem struct {
	Fingerprint string `json:"fingerprint,omitempty"`
	// Deduped marks a statement answered by an earlier statement of this
	// batch with the same fingerprint: it ran no estimation of its own.
	Deduped bool `json:"deduped,omitempty"`
	// Cached reports the group's estimate came without any enumeration
	// (estimate-cache hit or shared in-flight run).
	Cached   bool           `json:"cached,omitempty"`
	Error    string         `json:"error,omitempty"`
	Estimate *core.Estimate `json:"estimate,omitempty"`
}

// EstimateBatchResponse is the reply: per-statement items plus the batch's
// dedup accounting (Distinct groups estimated, Deduped statements that rode
// along).
type EstimateBatchResponse struct {
	Catalog      string      `json:"catalog"`
	Level        string      `json:"level"`
	Distinct     int         `json:"distinct"`
	Deduped      int         `json:"deduped"`
	ModelVersion int         `json:"model_version,omitempty"`
	Items        []BatchItem `json:"items"`
}

// maxBatchStatements bounds one batch request; parameterized workloads
// should chunk beyond this.
const maxBatchStatements = 256

// EstimateBatch estimates a slice of statements, deduplicating them by
// structural fingerprint so each distinct structure is estimated once. A
// statement that fails to parse (or whose group's estimation fails) gets a
// per-item error without failing the batch; whole-request problems (bad
// catalog, dead deadline) fail the request.
func (s *Server) EstimateBatch(ctx context.Context, req EstimateBatchRequest) (*EstimateBatchResponse, error) {
	ctx, cancel, _, err := s.begin(ctx, &s.metrics.BatchRequests)
	if err != nil {
		return nil, err
	}
	defer cancel()

	entry, level, err := s.resolve(req.Catalog, req.Level)
	if err != nil {
		return nil, err
	}
	if len(req.Statements) == 0 {
		return nil, badRequest("missing statements")
	}
	if len(req.Statements) > maxBatchStatements {
		return nil, badRequest("batch of %d statements exceeds the limit of %d", len(req.Statements), maxBatchStatements)
	}
	s.metrics.BatchStatements.AddN(int64(len(req.Statements)))
	arena := takeArena()
	defer s.releaseArena(arena)

	type group struct {
		st    stmt
		items []int
	}
	resp := &EstimateBatchResponse{
		Catalog: entry.Name,
		Level:   LevelName(level),
		Items:   make([]BatchItem, len(req.Statements)),
	}
	groups := make(map[fingerprint.FP]*group)
	var order []*group
	for i, sql := range req.Statements {
		it := &resp.Items[i]
		st, err := s.parse(arena, entry, sql)
		if err != nil {
			it.Error = err.Error()
			continue
		}
		fp := st.analysis.FP
		it.Fingerprint = fp.String()
		g, ok := groups[fp]
		if !ok {
			g = &group{st: st}
			groups[fp] = g
			order = append(order, g)
		} else {
			it.Deduped = true
			resp.Deduped++
		}
		g.items = append(g.items, i)
	}
	resp.Distinct = len(order)
	s.metrics.BatchDeduped.AddN(int64(resp.Deduped))

	v := s.models.Current()
	if v != nil {
		resp.ModelVersion = v.Version
	}
	for _, g := range order {
		// One observation per estimated group: the histogram and the
		// shedder's EWMA are defined over single estimates, and a batch
		// recorded whole would read as one estimate hundreds of times slower.
		start := time.Now()
		est, cached, err := s.estimate(ctx, g.st, level)
		s.observe(&s.metrics.EstimateLatency, start)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err // the whole batch is dead, not one group
			}
			for _, i := range g.items {
				resp.Items[i].Error = err.Error()
			}
			continue
		}
		out := price(est, v)
		for _, i := range g.items {
			resp.Items[i].Cached = cached
			resp.Items[i].Estimate = &out
		}
	}
	return resp, nil
}

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	Catalog string `json:"catalog"`
	SQL     string `json:"sql"`
	Level   string `json:"level,omitempty"`
	// BudgetMS overrides the server's admission budget for this request
	// (milliseconds; negative disables admission).
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// OnOverBudget overrides the over-budget behaviour: "reject" or
	// "downgrade" (default: the server's configuration).
	OnOverBudget string `json:"on_over_budget,omitempty"`
	// MemBudgetBytes overrides the server's memory budget for this request
	// (bytes; negative disables the memory budget).
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
}

// OptimizeResponse is the reply: the admission decision and — unless
// rejected — the chosen plan with its instrumentation.
type OptimizeResponse struct {
	Catalog   string             `json:"catalog"`
	Level     string             `json:"level,omitempty"`
	Admission *AdmissionDecision `json:"admission"`
	Plan      string             `json:"plan,omitempty"`
	Cost      float64            `json:"cost,omitempty"`
	Rows      float64            `json:"rows,omitempty"`
	ElapsedNS int64              `json:"elapsed_ns,omitempty"`
	Counts    core.PlanCounts    `json:"plan_counts"`
	// BudgetAborted lists levels whose compile started and was aborted
	// mid-flight because generated plans overran the prediction by more
	// than the server's budget factor; the final plan (if any) came from a
	// cheaper level.
	BudgetAborted []string `json:"budget_aborted,omitempty"`
	// MemAborted lists levels aborted mid-flight because measured optimizer
	// memory crossed the memory budget.
	MemAborted []string `json:"mem_aborted,omitempty"`
	// PeakBytes is the measured durable memory high-water mark of the
	// compile that produced the plan.
	PeakBytes int64 `json:"peak_bytes,omitempty"`
	// OverloadRungs is how many level-ladder rungs the overload controller
	// walked this request down before admission (0 when unloaded); the
	// admission decision's requested level stays the client's original.
	OverloadRungs int `json:"overload_rungs,omitempty"`
}

// Optimize runs a real optimization behind admission control: the cheap
// estimator prices the requested level first and the full compile runs
// only within budget (Figure 1's meta-optimizer as a serving guardrail).
func (s *Server) Optimize(ctx context.Context, req OptimizeRequest) (*OptimizeResponse, error) {
	ctx, cancel, start, err := s.begin(ctx, &s.metrics.OptimizeRequests)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer s.observe(&s.metrics.OptimizeLatency, start)

	entry, level, err := s.resolve(req.Catalog, req.Level)
	if err != nil {
		return nil, err
	}
	arena := takeArena()
	defer s.releaseArena(arena)
	st, err := s.parse(arena, entry, req.SQL)
	if err != nil {
		return nil, err
	}
	// The overload ladder: sustained queue pressure short of shedding walks
	// the request down the same downgrade rungs the admission controller
	// uses, before admission prices anything — a loaded server compiles
	// cheaper plans instead of slower ones.
	requested := level
	level, overloadRungs := downgradeForPressure(level, s.shed.PressureRungs())
	if overloadRungs > 0 {
		s.metrics.OverloadDowngrades.Add()
	}
	budget := s.cfg.Budget
	if req.BudgetMS != 0 {
		budget = time.Duration(req.BudgetMS) * time.Millisecond
	}
	memBudget := s.cfg.MemBudget
	if req.MemBudgetBytes != 0 {
		memBudget = knobs.MemBudget(req.MemBudgetBytes)
	}
	downgrade := s.cfg.Downgrade
	switch req.OnOverBudget {
	case "":
	case "reject":
		downgrade = false
	case "downgrade":
		downgrade = true
	default:
		return nil, badRequest("unknown on_over_budget %q (want reject or downgrade)", req.OnOverBudget)
	}

	// priceAt is the request's one estimate per level: admission, the
	// progress and budget baseline, and the calibration observation all read
	// the same one, priced by the model version current at admission.
	v := s.models.Current()
	hasModel := v != nil && v.Model != nil
	var memo [opt.NumLevels]*core.Estimate
	priceAt := func(l opt.Level) (core.Estimate, error) {
		if memo[l] == nil {
			est, _, err := s.estimate(ctx, st, l)
			if err != nil {
				return core.Estimate{}, err
			}
			memo[l] = est
		}
		return price(memo[l], v), nil
	}
	predict := func(l opt.Level) (time.Duration, bool, error) {
		if !hasModel {
			return 0, false, nil
		}
		p, err := priceAt(l)
		return p.PredictedTime, err == nil, err
	}
	predictMem := func(l opt.Level) (int64, error) {
		p, err := priceAt(l)
		return p.PredictedPeakBytes, err
	}
	dec, err := admit(level, budget, memBudget, downgrade, predict, predictMem)
	if err != nil {
		return nil, err
	}
	// The decision reports the client's requested level, not the one the
	// overload ladder already lowered it to.
	dec.RequestedLevel = LevelName(requested)
	resp := &OptimizeResponse{Catalog: entry.Name, Admission: dec, OverloadRungs: overloadRungs}
	switch dec.Action {
	case AdmitAccept:
		s.metrics.AdmissionAccepted.Add()
	case AdmitBypass:
		s.metrics.AdmissionBypassed.Add()
	case AdmitDowngrade:
		s.metrics.AdmissionDowngraded.Add()
	case AdmitReject:
		s.metrics.AdmissionRejected.Add()
		return resp, nil
	}
	admitted, err := ParseLevel(dec.AdmittedLevel)
	if err != nil {
		return nil, err
	}
	// The compile runs under an execution context: the request deadline
	// cancels it cooperatively, the COTE prediction feeds the live progress
	// meter (/v1/progress), and — with a budget factor or memory budget
	// configured — an overrun aborts it and drops a level, re-entering this
	// loop.
	for {
		oc := optctx.New(ctx).WithHooks(s.progress.hooks)
		var predictedTime time.Duration
		if admitted != opt.LevelLow {
			// The greedy floor runs unbudgeted, like admission: it is the
			// level every downgrade must be able to land on.
			oc.SetMemBudget(memBudget)
			// The COTE-predicted plan total is the progress denominator and
			// the budget baseline; the predicted time is what the calibration
			// loop scores against the measured one. Without a model there is
			// no basis for bounding, and a failed estimate must not stop the
			// compile.
			if hasModel {
				if p, err := priceAt(admitted); err == nil {
					predictedTime = p.PredictedTime
					plans := int64(p.Counts.Total())
					oc.SetPredictedPlans(plans)
					if s.cfg.BudgetFactor > 0 {
						oc.SetPlanBudget(int64(s.cfg.BudgetFactor * float64(plans)))
					}
				}
			}
		}
		res, err := s.compile(ctx, oc, entry, st.blk, admitted)
		s.metrics.ObserveStages(oc)
		if err == nil {
			resp.Level = LevelName(admitted)
			resp.Plan = res.Plan.String()
			resp.Cost = res.Plan.Cost
			resp.Rows = res.Plan.Card
			resp.ElapsedNS = res.Elapsed.Nanoseconds()
			resp.Counts = core.CountsFrom(res.TotalCounters())
			resp.PeakBytes = res.Resources.DurablePeakBytes
			s.metrics.ObserveResources(res.Resources)
			// Feed the calibration loop: every real optimization is a
			// training sample, the priced ones score the model's drift, and
			// the accounted ones (paired with the estimate's structural
			// counts) train the memory model.
			s.metrics.Observations.Add()
			var est *core.Estimate
			if _, err := priceAt(admitted); err == nil {
				est = memo[admitted]
			}
			obs := core.ObservationFrom(res, est)
			obs.Level, obs.Fingerprint, obs.Predicted = admitted, st.analysis.FP, predictedTime
			s.calib.ObserveCompile(obs)
			// Everything the response and the observers need is read: the
			// compile's workspaces serve the next request.
			res.Release()
			return resp, nil
		}
		switch {
		case errors.Is(err, optctx.ErrBudgetExceeded):
			s.metrics.BudgetAborts.Add()
			resp.BudgetAborted = append(resp.BudgetAborted, LevelName(admitted))
		case errors.Is(err, optctx.ErrMemBudgetExceeded):
			s.metrics.MemBudgetAborts.Add()
			resp.MemAborted = append(resp.MemAborted, LevelName(admitted))
		default:
			return nil, err
		}
		if !downgrade {
			return nil, err
		}
		admitted = admitted.NextLower()
	}
}

// compile runs one level's compile of blk in a pool slot, listed in
// /v1/progress from before it queues until it returns — also when it
// panics, which net/http recovers.
func (s *Server) compile(ctx context.Context, oc *optctx.Ctx, entry *RegistryEntry, blk *query.Block, level opt.Level) (*opt.Result, error) {
	defer s.progress.remove(s.progress.add(entry.Name, LevelName(level), oc))
	return Run(s.pool, ctx, func() (*opt.Result, error) {
		return opt.OptimizeWith(oc, blk, opt.Options{Level: level, Config: entry.Config})
	})
}
