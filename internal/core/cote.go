package core

import (
	"context"
	"sync"
	"time"

	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/knobs"
	"cote/internal/memo"
	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/props"
	"cote/internal/query"
)

// Options configures a compilation-time estimation run. The zero value
// estimates the serial LevelHighInner2 compilation with DB2's defaults
// (eager orders, lazy partitions, separate lists, first-join-only
// propagation).
type Options struct {
	// Level is the optimization level whose compilation is being estimated.
	Level opt.Level
	// Config selects serial or parallel (nil = serial).
	Config *cost.Config
	// OrderPolicy is the order generation policy (default eager).
	OrderPolicy props.GenerationPolicy
	// ListMode selects separate vs compound property lists (Section 3.4).
	ListMode ListMode
	// PropagateEveryJoin disables the first-join-only propagation
	// simplification (DB2 experience item 4) — ablation only.
	PropagateEveryJoin bool
	// CartesianPolicy overrides the Cartesian handling (default card-one).
	CartesianPolicy enum.CartesianPolicy
	// Model converts plan counts to a time prediction when non-nil.
	Model *TimeModel
	// MemModel converts the estimate's structural counts into a predicted
	// peak optimizer memory; nil is the structural default, so
	// PredictedPeakBytes is always populated.
	MemModel *MemModel
	// Exec, when non-nil, bounds the estimation run: its cancellation is
	// honored at block and enumeration granularity. Estimation is cheap
	// (sub-3% of real compilation), but deadline-sensitive callers want even
	// that bounded.
	Exec *optctx.Ctx
}

func (o Options) level() opt.Level {
	if o.Level == opt.LevelLow {
		return opt.LevelHighInner2
	}
	return o.Level
}

// BlockEstimate is the estimation outcome for one query block. It holds
// values only, never a pointer: a cached Estimate must not reach the block
// it was computed from, which lives in a request's statement arena.
type BlockEstimate struct {
	Counts    PlanCounts
	EnumStats enum.Stats
	// Entries is the number of MEMO entries the enumeration created.
	Entries int
	// PropertyBytes is the space the interesting-property lists used.
	PropertyBytes int
	// MeasuredBytes is the durable bytes of this block's MEMO (entry
	// footprints plus property values at their fixed per-structure sizes).
	// The MEMO counts them itself, so it is populated — and deterministic —
	// even without an execution context.
	MeasuredBytes int64
}

// Estimate is the estimation outcome for a whole query.
type Estimate struct {
	Blocks []*BlockEstimate
	// Counts totals estimated generated join plans per method.
	Counts PlanCounts
	// Joins and Pairs total the enumerated ordered joins and unordered
	// join pairs (the Ono-Lohman metric).
	Joins, Pairs int
	// CandidatesVisited and CandidatesSkipped total the size-class partner
	// slots the enumerator examined vs dropped with a whole size-class pair
	// the level's shape/composite-inner knobs rule out (visited + skipped =
	// the full DPsize cross product).
	CandidatesVisited, CandidatesSkipped int
	// Elapsed is the wall time the estimation itself took — the overhead
	// the paper bounds below 3% of real compilation (Figure 4).
	Elapsed time.Duration
	// PredictedTime is the compilation-time prediction (zero without a
	// model).
	PredictedTime time.Duration
	// PredictedMemoryBytes is the optimizer memory lower bound of the
	// Section 6.2 extension.
	PredictedMemoryBytes int64
	// PredictedPeakBytes is the memory model's prediction of the real
	// compile's durable MEMO high-water mark at this level (entries,
	// retained plans, property values at fixed per-structure sizes).
	PredictedPeakBytes int64
	// MeasuredPeakBytes totals the durable bytes the estimation run's own
	// MEMOs held — the estimator's measured counterpart, bit-stable
	// across pool states.
	MeasuredPeakBytes int64
}

// EstimatePlans runs plan-estimate mode on a query: the join enumerator is
// reused with the initialize / accumulate_plans hooks installed instead of
// plan generation, over the simple cardinality model. Nested blocks are
// estimated children-first, their (simple-mode) output cardinalities feeding
// the parents, mirroring the real optimizer's multi-block processing.
func EstimatePlans(blk *query.Block, opts Options) (*Estimate, error) {
	start := time.Now()
	est := &Estimate{}
	blocks := blk.Blocks()
	// Each finished block's output cardinality, the rows its parent's
	// derived table reads; on the stack up to eight blocks.
	var cardBuf [8]float64
	cards := cardBuf[:0]
	for i, b := range blocks {
		if opts.Exec.Cancelled() {
			return nil, opts.Exec.Err()
		}
		ws := acquireWorkspace(b, blocks[:i], cards, opts)
		be, err := ws.estimate(opts)
		if err != nil {
			ws.release()
			return nil, err
		}
		cards = append(cards, outputCard(b, ws.mem))
		ws.release()
		est.Blocks = append(est.Blocks, be)
		est.Counts.Add(be.Counts)
		est.Joins += be.EnumStats.Joins
		est.Pairs += be.EnumStats.Pairs
		est.CandidatesVisited += be.EnumStats.CandidatesVisited
		est.CandidatesSkipped += be.EnumStats.CandidatesSkipped
		est.PredictedMemoryBytes += memoryLowerBound(be)
		est.MeasuredPeakBytes += be.MeasuredBytes
	}
	est.Elapsed = time.Since(start)
	if opts.Model != nil {
		est.PredictedTime = opts.Model.Predict(est.Counts)
	}
	est.PredictedPeakBytes = EstimateMemory(est, opts.MemModel)
	return est, nil
}

// EstimatePlansCtx is EstimatePlans bounded by a context: when ctx expires
// the estimation stops cooperatively and the context's error is returned.
func EstimatePlansCtx(ctx context.Context, blk *query.Block, opts Options) (*Estimate, error) {
	opts.Exec = optctx.New(ctx)
	return EstimatePlans(blk, opts)
}

// workspace is everything an estimation run over one block needs besides its
// result: the MEMO with its slab and arenas, the simple-mode cardinality
// estimator, the interest scope and the counter with its per-join scratch.
// reset readies all of it for a block and rebuilds none, so on a warm pool a
// run allocates its Estimate and little else. Nothing reachable from it may
// be kept past release: BlockEstimate and MultiLevelEstimate hold scalars,
// never an entry, order or partition, whose storage the next run overwrites.
type workspace struct {
	mem  *memo.Memo
	card cost.Estimator
	sc   props.Scope
	cnt  counter
}

// workspacePool is the only pool on the estimate path.
var workspacePool = sync.Pool{New: func() any { return &workspace{mem: memo.New(0)} }}

// acquireWorkspace takes a workspace from the pool and resets it for blk;
// done and cards are the blocks the run has finished and their outputs.
func acquireWorkspace(blk *query.Block, done []*query.Block, cards []float64, opts Options) *workspace {
	ws := workspacePool.Get().(*workspace)
	ws.reset(blk, done, cards, opts)
	return ws
}

func (ws *workspace) release() { workspacePool.Put(ws) }

// reset readies the workspace for one block, whatever it served before.
// Plan-estimate mode deliberately uses the simple cardinality model — cheap,
// but ignorant of keys, which is the documented source of the parallel HSJN
// estimation errors.
func (ws *workspace) reset(blk *query.Block, done []*query.Block, cards []float64, opts Options) {
	ws.card.Reset(blk, cost.Simple, done, cards)
	ws.sc.Reset(blk)
	ws.mem.Reset(blk.NumTables())
	ws.cnt.reset(blk, &ws.sc, ws.mem, knobs.CostConfig(opts.Config).Nodes, opts)
}

// enumerator builds the block's join enumerator at the given level over the
// workspace's MEMO and estimator.
func (ws *workspace) enumerator(level opt.Level, opts Options) *enum.Enumerator {
	eopts := level.EnumOptions()
	eopts.Cartesian = opts.CartesianPolicy
	eopts.Exec = opts.Exec
	return enum.New(ws.cnt.blk, ws.mem, &ws.card, eopts)
}

// estimate runs the block the workspace was reset for through the enumerator
// with counting hooks.
func (ws *workspace) estimate(opts Options) (*BlockEstimate, error) {
	mem, cnt := ws.mem, &ws.cnt

	st, err := ws.enumerator(opts.level(), opts).Run(enum.Hooks{Init: cnt.initialize, Join: cnt.accumulatePlans})
	if err != nil {
		return nil, err
	}

	// Property values enter the MEMO once per block: the counter only ever
	// grows the lists, so adding them at the end reaches the high-water mark
	// adding them one by one would, off the per-join hot path. The counter's
	// per-join scratch is working memory, not MEMO content: the run's peak
	// sees it, but blocks don't accumulate freed buffers.
	pb := cnt.propertyBytes(mem)
	mem.AddProperties(pb / memo.PropertyValueBytes)
	opts.Exec.EndBlock(mem, 0, cnt.scratchBytes())

	return &BlockEstimate{
		Counts:        cnt.counts,
		EnumStats:     st,
		Entries:       mem.NumEntries(),
		PropertyBytes: pb,
		MeasuredBytes: mem.DurableBytes(),
	}, nil
}

// outputCard is a block's simple-mode output cardinality after mem holds its
// enumeration: the root entry's cardinality, capped by the product of the
// group-by NDVs. It is what the parent's derived table reads, as the real
// optimizer feeds a child's full-mode estimate to its parent.
func outputCard(blk *query.Block, mem *memo.Memo) float64 {
	card := mem.Entry(blk.AllTables()).Card
	if len(blk.GroupBy) > 0 {
		groups := 1.0
		for _, c := range blk.GroupBy {
			groups *= blk.Column(c).Col.NDV
		}
		if groups < card {
			card = groups
		}
	}
	return card
}

// memoryLowerBound converts a block's property-list footprint into the
// optimizer memory lower bound of Section 6.2: the MEMO must hold at least
// one plan per interesting property value (plus the DC plan per entry).
func memoryLowerBound(be *BlockEstimate) int64 {
	const bytesPerPlan = 256 // "a full plan [is] typically in the order of hundreds of bytes"
	const bytesPerProperty = 4
	properties := be.PropertyBytes / bytesPerProperty
	plans := properties + be.Entries // one DC plan per entry
	return int64(plans) * bytesPerPlan
}
