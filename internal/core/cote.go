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
	"cote/internal/resource"
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

// BlockEstimate is the estimation outcome for one query block.
type BlockEstimate struct {
	Block     *query.Block
	Counts    PlanCounts
	EnumStats enum.Stats
	// Entries is the number of MEMO entries the enumeration created.
	Entries int
	// PropertyBytes is the space the interesting-property lists used.
	PropertyBytes int
	// MeasuredBytes is the durable byte total charged to this block's MEMO
	// (entry footprints plus property values at their fixed per-structure
	// sizes). It is computed from the memo-local tally, so it is populated —
	// and deterministic — even when no run accountant is attached.
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
	// MEMOs were charged — the estimator's measured counterpart, bit-stable
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
	for i, b := range blocks {
		if opts.Exec.Cancelled() {
			return nil, opts.Exec.Err()
		}
		ws := acquireWorkspace(b, opts)
		be, outCard, err := ws.estimate(opts)
		ws.release()
		if err != nil {
			return nil, err
		}
		est.Blocks = append(est.Blocks, be)
		est.Counts.Add(be.Counts)
		est.Joins += be.EnumStats.Joins
		est.Pairs += be.EnumStats.Pairs
		est.CandidatesVisited += be.EnumStats.CandidatesVisited
		est.CandidatesSkipped += be.EnumStats.CandidatesSkipped
		est.PredictedMemoryBytes += memoryLowerBound(be)
		est.MeasuredPeakBytes += be.MeasuredBytes
		// Export the block's output cardinality (simple mode) to the
		// derived refs in later blocks, as the real optimizer does with its
		// full-mode estimate. Blocks come children-first, so only later
		// blocks can read b.
		for _, pb := range blocks[i+1:] {
			for _, ref := range pb.Tables {
				if ref.Derived == b {
					ref.CardOverride = outCard
				}
			}
		}
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

// acquireWorkspace takes a workspace from the pool and resets it for blk.
func acquireWorkspace(blk *query.Block, opts Options) *workspace {
	ws := workspacePool.Get().(*workspace)
	ws.reset(blk, opts)
	return ws
}

func (ws *workspace) release() { workspacePool.Put(ws) }

// reset readies the workspace for one block, whatever it served before.
// Plan-estimate mode deliberately uses the simple cardinality model — cheap,
// but ignorant of keys, which is the documented source of the parallel HSJN
// estimation errors.
func (ws *workspace) reset(blk *query.Block, opts Options) {
	ws.card.Reset(blk, cost.Simple)
	ws.sc.Reset(blk)
	ws.mem.Reset(blk.NumTables())
	// Attach after Reset (which detaches and zeroes the previous run's
	// accounting) so pooled reuse never carries stale charges forward. A nil
	// Exec still keeps the memo-local tally, so MeasuredBytes costs nothing.
	ws.mem.SetAccountant(opts.Exec.Resources())
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
// with counting hooks; it returns the (simple-mode) output cardinality too.
func (ws *workspace) estimate(opts Options) (*BlockEstimate, float64, error) {
	blk, mem, cnt := ws.cnt.blk, ws.mem, &ws.cnt

	st, err := ws.enumerator(opts.level(), opts).Run(enum.Hooks{Init: cnt.initialize, Join: cnt.accumulatePlans})
	if err != nil {
		return nil, 0, err
	}

	root := mem.Entry(blk.AllTables())
	outCard := root.Card
	if len(blk.GroupBy) > 0 {
		groups := 1.0
		for _, c := range blk.GroupBy {
			groups *= blk.Column(c).Col.NDV
		}
		if groups < outCard {
			outCard = groups
		}
	}

	// Durable property values are charged once per block: the counter only
	// ever grows the lists (nothing releases mid-block), so the end-of-block
	// charge reaches the same durable high-water mark as per-add charging
	// would, without touching the accountant on the per-join hot path.
	pb := cnt.propertyBytes(mem)
	mem.ChargeProperties(pb / memo.PropertyValueBytes)
	// The counter's per-join scratch is working memory, not MEMO content:
	// charge its high-water use and release it, so the run's total peak sees
	// it but blocks don't accumulate freed buffers.
	if acct := opts.Exec.Resources(); acct != nil {
		sb := cnt.scratchBytes()
		acct.Charge(resource.KindScratch, sb)
		acct.Release(resource.KindScratch, sb)
	}

	return &BlockEstimate{
		Block:         blk,
		Counts:        cnt.counts,
		EnumStats:     st,
		Entries:       mem.NumEntries(),
		PropertyBytes: pb,
		MeasuredBytes: mem.AccountedBytes(),
	}, outCard, nil
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
