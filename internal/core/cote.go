package core

import (
	"context"
	"fmt"
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

// Estimate is the estimation outcome for a whole query at one level. Counts,
// Joins and Pairs are the level's own. Blocks, Entries, PropertyBytes,
// MeasuredPeakBytes, the candidate totals and Elapsed describe the
// enumeration pass that produced them, which EstimateLevels shares between
// all the levels it estimates; the predictions are priced from the level's
// counts and the pass's structure. It holds values only, never a pointer: a
// cached Estimate must not reach the block it was computed from, which lives
// in a request's statement arena.
type Estimate struct {
	// Counts totals estimated generated join plans per method.
	Counts PlanCounts
	// Joins and Pairs total the enumerated ordered joins and unordered
	// join pairs (the Ono-Lohman metric).
	Joins, Pairs int
	// Blocks is the number of query blocks the pass enumerated.
	Blocks int
	// Entries is the number of MEMO entries the pass created.
	Entries int
	// PropertyBytes is the space the interesting-property lists used.
	PropertyBytes int
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
	// MeasuredPeakBytes totals the durable bytes the pass's own MEMOs held
	// (entry footprints plus property values at their fixed per-structure
	// sizes) — the estimator's measured counterpart, bit-stable across pool
	// states. The MEMO counts them itself, so it is populated even without
	// an execution context.
	MeasuredPeakBytes int64
}

// EstimatePlans runs plan-estimate mode on a query: the join enumerator is
// reused with the initialize / accumulate_plans hooks installed instead of
// plan generation, over the simple cardinality model. It is EstimateLevels
// at the one level opts selects.
func EstimatePlans(blk *query.Block, opts Options) (*Estimate, error) {
	ests, err := EstimateLevels(blk, []opt.Level{opts.level()}, opts)
	if err != nil {
		return nil, err
	}
	return &ests[0], nil
}

// EstimateLevels estimates every level of levels from one enumeration at the
// level among them whose search space subsumes all the others' — the
// Section 6.2 extension: "It's possible to estimate the compilation time of
// multiple levels of optimization in a single pass, as long as the search
// space of the highest level subsumes that of all other levels." It returns
// one Estimate per entry of levels, in order; opts.Level is not read.
// Nested blocks are estimated children-first, their (simple-mode) output
// cardinalities feeding the parents, mirroring the real optimizer's
// multi-block processing.
func EstimateLevels(blk *query.Block, levels []opt.Level, opts Options) ([]Estimate, error) {
	top, err := topLevel(levels)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ests := make([]Estimate, len(levels))
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
		err := ws.estimate(levels, top, opts, ests)
		if err == nil {
			cards = append(cards, outputCard(b, ws.mem))
		}
		ws.release()
		if err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	for i := range ests {
		e := &ests[i]
		e.Elapsed = elapsed
		if opts.Model != nil {
			e.PredictedTime = opts.Model.Predict(e.Counts)
		}
		e.PredictedMemoryBytes = memoryLowerBound(e)
		e.PredictedPeakBytes = EstimateMemory(e, opts.MemModel)
	}
	return ests, nil
}

// topLevel returns the index of the level of levels that subsumes every
// other, refusing the greedy level, which has no plan-count estimate.
func topLevel(levels []opt.Level) (int, error) {
	if len(levels) == 0 {
		return 0, fmt.Errorf("core: no level to estimate")
	}
	top := 0
	for i, l := range levels {
		if l.Subsumes(levels[top]) {
			top = i
		}
	}
	for _, l := range levels {
		if l == opt.LevelLow {
			return 0, fmt.Errorf("core: the greedy level has no plan-count estimate")
		}
		if !levels[top].Subsumes(l) {
			return 0, fmt.Errorf("core: level %v does not subsume %v", levels[top], l)
		}
	}
	return top, nil
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
// be kept past release: an Estimate holds scalars, never an entry, order or
// partition, whose storage the next run overwrites.
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

// estimate runs the block the workspace was reset for through one
// enumeration at levels[top], adding to each level's entry of ests its own
// counts and the pass's structure. The workspace's counter propagates the
// property lists and counts for levels[top]; every other level gets a
// count-only fork that sees the joins its space admits.
func (ws *workspace) estimate(levels []opt.Level, top int, opts Options, ests []Estimate) error {
	cnt := &ws.cnt
	hooks := enum.Hooks{Init: cnt.initialize, Join: cnt.accumulatePlans}
	cnts := []*counter{cnt}
	if len(levels) > 1 {
		cnts = cnt.forLevels(len(levels), top)
		hooks.Join = func(outer, inner, result *memo.Entry) {
			for i, c := range cnts {
				if i != top && levelAdmits(levels[i], outer, inner) {
					c.countOnly(outer, inner, result)
				}
			}
			cnt.accumulatePlans(outer, inner, result)
		}
	}
	st, err := ws.enumerator(levels[top], opts).Run(hooks)
	if err != nil {
		return err
	}
	var scratch int64
	for _, c := range cnts {
		scratch += c.scratchBytes()
	}
	pb := ws.endBlock(opts.Exec, scratch)
	entries, measured := ws.mem.NumEntries(), ws.mem.DurableBytes()
	for i, c := range cnts {
		e := &ests[i]
		e.Counts.Add(c.counts)
		e.Joins += c.joins
		e.Pairs += c.pairs
		e.Blocks++
		e.Entries += entries
		e.PropertyBytes += pb
		e.MeasuredPeakBytes += measured
		e.CandidatesVisited += st.CandidatesVisited
		e.CandidatesSkipped += st.CandidatesSkipped
	}
	return nil
}

// endBlock charges the block to exec: the counter's property values enter
// the MEMO once per block — the counter only ever grows the lists, so adding
// them at the end reaches the high-water mark adding them one by one would,
// off the per-join hot path — and scratch, the counters' per-join working
// memory, is seen by the run's peak and then freed, as blocks don't
// accumulate freed buffers. It returns the property bytes.
func (ws *workspace) endBlock(exec *optctx.Ctx, scratch int64) int {
	pb := ws.cnt.propertyBytes(ws.mem)
	ws.mem.AddProperties(pb / memo.PropertyValueBytes)
	exec.EndBlock(ws.mem, 0, scratch)
	return pb
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

// memoryLowerBound converts an estimate's property-list footprint into the
// optimizer memory lower bound of Section 6.2: the MEMO must hold at least
// one plan per interesting property value (plus the DC plan per entry).
func memoryLowerBound(e *Estimate) int64 {
	const bytesPerPlan = 256 // "a full plan [is] typically in the order of hundreds of bytes"
	const bytesPerProperty = 4
	properties := e.PropertyBytes / bytesPerProperty
	plans := properties + e.Entries // one DC plan per entry
	return int64(plans) * bytesPerPlan
}
