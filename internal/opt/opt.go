// Package opt is the optimizer facade: it wires the join enumerator to the
// plan generator, processes nested query blocks bottom-up, applies the
// finishing enforcers (final ORDER BY sort, aggregation), and exposes the
// optimization levels of the reproduced system — the greedy low level and
// dynamic-programming levels with the knob presets the paper's experiments
// use. A Timed compilation also carries the wall-clock breakdown that
// regenerates Figure 2.
package opt

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/greedy"
	"cote/internal/knobs"
	"cote/internal/memo"
	"cote/internal/optctx"
	"cote/internal/plangen"
	"cote/internal/props"
	"cote/internal/query"
)

// Level is an optimization level. Higher levels search larger spaces and
// take longer to compile — the trade-off the meta-optimizer automates.
type Level int

// The optimization levels of the reproduced system.
const (
	// LevelLow is the polynomial greedy heuristic.
	LevelLow Level = iota
	// LevelMediumLeftDeep is dynamic programming over left-deep trees.
	LevelMediumLeftDeep
	// LevelMediumZigZag is dynamic programming over zig-zag trees.
	LevelMediumZigZag
	// LevelHighInner2 is bushy dynamic programming with composite inners
	// limited to 2 tables — "certain limits on the composite inner size",
	// the level the paper's experiments run at.
	LevelHighInner2
	// LevelHigh is unrestricted bushy dynamic programming.
	LevelHigh
	NumLevels
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelLow:
		return "low(greedy)"
	case LevelMediumLeftDeep:
		return "medium(leftdeep)"
	case LevelMediumZigZag:
		return "medium(zigzag)"
	case LevelHighInner2:
		return "high(inner<=2)"
	case LevelHigh:
		return "high(bushy)"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// EnumOptions returns the enumerator knobs of a DP level. It panics for
// LevelLow, which does not enumerate.
func (l Level) EnumOptions() enum.Options {
	switch l {
	case LevelMediumLeftDeep:
		return enum.Options{Shape: enum.LeftDeep}
	case LevelMediumZigZag:
		return enum.Options{Shape: enum.ZigZag}
	case LevelHighInner2:
		return enum.Options{CompositeInnerLimit: 2}
	case LevelHigh:
		return enum.Options{}
	}
	panic(fmt.Sprintf("opt: level %v has no enumerator options", l))
}

// NextLower returns the next-cheaper level — the downgrade ladder the
// admission controller and the meta-optimizer's budget abort walk. LevelLow
// returns itself (the floor).
func (l Level) NextLower() Level {
	switch l {
	case LevelHigh:
		return LevelHighInner2
	case LevelHighInner2:
		return LevelMediumZigZag
	case LevelMediumZigZag:
		return LevelMediumLeftDeep
	default:
		return LevelLow
	}
}

// Subsumes reports whether the search space of level l contains that of m —
// the condition under which a single estimation pass at l can piggyback
// estimates for m (Section 6.2).
func (l Level) Subsumes(m Level) bool {
	if m == LevelLow {
		return true
	}
	switch l {
	case LevelHigh:
		return true
	case LevelHighInner2:
		return m == LevelHighInner2 || m == LevelMediumLeftDeep
	case LevelMediumZigZag:
		return m == LevelMediumZigZag || m == LevelMediumLeftDeep
	case LevelMediumLeftDeep:
		return m == LevelMediumLeftDeep
	}
	return false
}

// Options configures one optimization.
type Options struct {
	// Level selects the search space. Default LevelHighInner2.
	Level Level
	// Config selects serial or parallel costing. Default serial.
	Config *cost.Config
	// OrderPolicy is the order-property generation policy (default eager,
	// as in DB2).
	OrderPolicy props.GenerationPolicy
	// PilotPass, when true, first runs the greedy level and prunes any
	// generated plan costlier than the greedy plan (Section 6.1).
	PilotPass bool
	// CartesianPolicy overrides the enumerator's Cartesian handling
	// (default: the card-one heuristic).
	CartesianPolicy enum.CartesianPolicy
	// Timed keeps the plan generator's per-phase timers (Counters.GenTime,
	// SaveTime, AccessTime) that Breakdown and calibration's Ct shares read.
	// Off by default: an untimed compile produces the same plans and counts
	// and never reads the clock inside a join.
	Timed bool
}

// BlockResult is the outcome of optimizing one query block.
type BlockResult struct {
	Block     *query.Block
	Plan      *memo.Plan
	Memo      *memo.Memo
	EnumStats enum.Stats
	Counters  plangen.Counters
	Elapsed   time.Duration
}

// Result is the outcome of optimizing a query (all blocks).
//
// Each block's plans live in its MEMO, which the Result owns until Release
// hands it to the next compile. A caller that never calls Release leaves the
// MEMOs to the garbage collector, as if nothing were pooled.
type Result struct {
	// Plan is the final plan of the outermost block, including finishing
	// enforcers.
	Plan *memo.Plan
	// Blocks holds per-block results, children first.
	Blocks []*BlockResult
	// Elapsed is the total compilation wall time.
	Elapsed time.Duration
	// Resources is the run's measured memory accounting (all zero when the
	// compile ran without an execution context). DurablePeakBytes is the
	// deterministic MEMO high-water mark core.EstimateMemory predicts.
	Resources optctx.Resources
}

// Release hands the result's MEMOs, with the plans carved from them, to the
// workspace pool, where the next compile overwrites them, and nils Plan and
// every block's Plan and Memo. Every plan and MEMO entry reached through the
// result before is invalid from then on; the scalars — Elapsed, Resources,
// each block's Counters, EnumStats and Elapsed, and so TotalCounters and
// Breakdown — stay valid. A second call does nothing. Release must not run
// concurrently with a reader of the result.
func (r *Result) Release() {
	if r.Plan == nil {
		return
	}
	ws := acquireWorkspace()
	ws.reclaim(r)
	workspacePool.Put(ws)
}

// TotalCounters sums the plan-generation counters over all blocks.
func (r *Result) TotalCounters() plangen.Counters {
	var total plangen.Counters
	for _, b := range r.Blocks {
		total.Merge(&b.Counters)
	}
	return total
}

// TotalJoins sums enumerated joins over all blocks.
func (r *Result) TotalJoins() (ordered, pairs int) {
	for _, b := range r.Blocks {
		ordered += b.EnumStats.Joins
		pairs += b.EnumStats.Pairs
	}
	return ordered, pairs
}

// Breakdown is the Figure 2 compilation-time decomposition.
type Breakdown struct {
	MGJN, NLJN, HSJN, PlanSaving, Other float64 // fractions summing to 1
}

// Breakdown computes the compilation-time breakdown of a Timed result (an
// untimed one is all Other). Other is never negative: the plan generator's
// timers are disjoint laps inside each block's wall time
// (TestStopwatchCountsEachNanosecondOnce).
func (r *Result) Breakdown() Breakdown {
	c := r.TotalCounters()
	total := r.Elapsed.Seconds()
	if total <= 0 {
		return Breakdown{Other: 1}
	}
	b := Breakdown{
		MGJN:       c.GenTime[props.MGJN].Seconds() / total,
		NLJN:       c.GenTime[props.NLJN].Seconds() / total,
		HSJN:       c.GenTime[props.HSJN].Seconds() / total,
		PlanSaving: c.SaveTime.Seconds() / total,
	}
	b.Other = 1 - b.MGJN - b.NLJN - b.HSJN - b.PlanSaving
	return b
}

// Optimize compiles the query at the given level: child blocks first (their
// output cardinalities feed the parent, as in the paper's multi-block
// extension), then the outermost block, then the finishing enforcers. It
// cannot be cancelled; deadline-sensitive callers use OptimizeCtx or
// OptimizeWith.
func Optimize(blk *query.Block, opts Options) (*Result, error) {
	return OptimizeWith(nil, blk, opts)
}

// OptimizeCtx is Optimize bounded by a context: when ctx expires the
// compilation stops cooperatively (at size-class and bounded-stride
// granularity in the enumerator) and the context's error is returned.
func OptimizeCtx(ctx context.Context, blk *query.Block, opts Options) (*Result, error) {
	return OptimizeWith(optctx.New(ctx), blk, opts)
}

// OptimizeWith compiles under an execution context carrying cancellation,
// a generated-plan budget, live progress and per-stage observability. A nil
// oc behaves exactly like Optimize. With a never-cancelled oc the produced
// plans, costs and counters are identical to Optimize — the context only
// observes.
func OptimizeWith(oc *optctx.Ctx, blk *query.Block, opts Options) (*Result, error) {
	ws := acquireWorkspace()
	res, err := ws.optimize(oc, blk, opts)
	if err != nil {
		ws.reclaim(res) // nothing escaped
		res = nil
	}
	workspacePool.Put(ws)
	return res, err
}

// recordStages attributes one block's compilation to the observability
// stages: generation counts the join-method, access and enforcer plans
// built, pruning the plans property-aware pruning dropped from the MEMO, and
// enumeration the joins enumerated and the block's wall time — the DP, with
// generation and pruning inside it, which are not timed apart.
func recordStages(oc *optctx.Ctx, br *BlockResult) {
	if oc == nil {
		return
	}
	c := &br.Counters
	created := c.TotalGenerated() + c.AccessPlans + c.EnforcerPlans
	pruned := max(created-br.Memo.NumPlans(), 0)
	oc.RecordStage(optctx.StageGenerate, int64(created), 0)
	oc.RecordStage(optctx.StagePrune, int64(pruned), 0)
	oc.RecordStage(optctx.StageEnumerate, int64(br.EnumStats.Joins), br.Elapsed)
}

// workspace is everything a compile works in: the plan generator with its
// scratch (hit memo, buffers, free list, interned properties), the
// full-mode cardinality estimator, the interest scope, and the MEMOs
// released results handed back. Each block takes a MEMO — the one thing
// that outlives the compile, holding the block's entries, plan lists and
// the plans themselves — and the rest is reset for it and rebuilds nothing.
// The workspace returns to the pool when the compile ends, released or not,
// so a caller that never releases still compiles with a warm generator.
type workspace struct {
	// gen is first so its hit memo keeps the allocation's alignment.
	gen plangen.Generator
	// card and sc are what gen and the enumerator read through pointers.
	card cost.Estimator
	sc   props.Scope
	// hooks are gen's enumerator callbacks, bound once: gen never moves.
	hooks enum.Hooks
	// memos are scrubbed MEMOs waiting for a block.
	memos []*memo.Memo
}

// workspacePool is the only pool on the compile path.
var workspacePool = sync.Pool{New: func() any { return newWorkspace() }}

func newWorkspace() *workspace {
	ws := new(workspace)
	ws.hooks = ws.gen.Hooks()
	return ws
}

func acquireWorkspace() *workspace { return workspacePool.Get().(*workspace) }

// memo takes a MEMO for a block of n tables.
func (ws *workspace) memo(n int) *memo.Memo {
	k := len(ws.memos)
	if k == 0 {
		return memo.New(n)
	}
	m := ws.memos[k-1]
	ws.memos[k-1] = nil
	ws.memos = ws.memos[:k-1]
	m.Reset(n)
	return m
}

// keep scrubs a MEMO (memo.Reset drops its entries and plan lists and
// zeroes its counts) and holds it for a later block.
func (ws *workspace) keep(m *memo.Memo) {
	m.Reset(0)
	ws.memos = append(ws.memos, m)
}

// reclaim keeps a result's MEMOs and nils every pointer into them.
func (ws *workspace) reclaim(r *Result) {
	for _, b := range r.Blocks {
		ws.keep(b.Memo)
		b.Plan, b.Memo = nil, nil
	}
	r.Plan = nil
}

// optimize compiles blk in the workspace. On error it returns the blocks
// finished so far, so the caller can reclaim their MEMOs.
func (ws *workspace) optimize(oc *optctx.Ctx, blk *query.Block, opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{}
	blocks := blk.Blocks()
	// Each finished block's output cardinality, the rows its parent's
	// derived table reads; on the stack up to eight blocks.
	var cardBuf [8]float64
	cards := cardBuf[:0]
	for i, b := range blocks {
		if oc.Cancelled() {
			return res, oc.Err()
		}
		mem := ws.memo(b.NumTables())
		br, err := ws.optimizeBlock(oc, b, blocks[:i], cards, mem, opts)
		if err != nil {
			ws.keep(mem)
			return res, err
		}
		res.Blocks = append(res.Blocks, br)
		cards = append(cards, br.Plan.Card)
	}
	root := res.Blocks[len(res.Blocks)-1]
	res.Plan = finish(root.Block, root.Plan, root.Memo, &ws.sc, opts)
	res.Elapsed = time.Since(start)
	res.Resources = oc.Resources()
	return res, nil
}

// optimizeBlock compiles one block into mem; done and cards are the blocks
// the compile has finished and their output cardinalities.
func (ws *workspace) optimizeBlock(oc *optctx.Ctx, blk *query.Block, done []*query.Block, cards []float64, mem *memo.Memo, opts Options) (*BlockResult, error) {
	t0 := time.Now()
	cfg := knobs.CostConfig(opts.Config)
	card := &ws.card
	card.Reset(blk, cost.Full, done, cards)
	ws.sc.Reset(blk)

	if opts.Level == LevelLow {
		g, err := greedy.Optimize(blk, card, cfg)
		if err != nil {
			return nil, err
		}
		return &BlockResult{
			Block: blk, Plan: g.Plan, Memo: mem,
			Elapsed: time.Since(t0),
		}, nil
	}

	mem.PipelineMatters = ws.sc.PipelineInteresting()
	mem.ExpMatters = !ws.sc.ExpensiveTables().Empty()
	popts := plangen.Options{Config: cfg, OrderPolicy: opts.OrderPolicy, Exec: oc, Timed: opts.Timed}
	if opts.PilotPass {
		g, err := greedy.Optimize(blk, card, cfg)
		if err != nil {
			return nil, err
		}
		popts.PilotBound = g.Cost
	}
	gen := &ws.gen
	gen.Reset(blk, &ws.sc, mem, card, popts)

	eopts := opts.Level.EnumOptions()
	eopts.Cartesian = opts.CartesianPolicy
	eopts.Exec = oc
	st, err := enum.New(blk, mem, card, eopts).Run(ws.hooks)
	scratch := gen.Finish()
	if err != nil {
		return nil, err
	}
	oc.EndBlock(mem, scratch, 0)
	rootEntry := mem.Entry(blk.AllTables())
	best := rootEntry.Best()
	if best == nil {
		return nil, fmt.Errorf("opt: query %q produced no plan (pilot bound too tight?)", blk.Name)
	}
	br := &BlockResult{
		Block: blk, Plan: best, Memo: mem,
		EnumStats: st, Counters: gen.Counters,
		Elapsed: time.Since(t0),
	}
	recordStages(oc, br)
	return br, nil
}

// finish applies the top-level enforcers: a final sort when no plan
// delivers the ORDER BY order, and the aggregation operator for GROUP BY,
// choosing the streaming variant when the input is suitably ordered.
func finish(blk *query.Block, best *memo.Plan, mem *memo.Memo, sc *props.Scope, opts Options) *memo.Plan {
	cfg := knobs.CostConfig(opts.Config)
	plan := best
	root := mem.Entry(blk.AllTables())
	// The root entry's classes are those of the whole block. Without one
	// (greedy, at the low level) they are built only when a GROUP BY or
	// ORDER BY reads them.
	var eq *query.Equiv
	if root != nil {
		eq = &root.Equiv
	} else if len(blk.GroupBy) > 0 || len(blk.OrderBy) > 0 {
		eq = blk.EquivWithin(blk.AllTables())
	}

	// Apply any expensive predicates the plan deferred past its joins.
	if !plan.DeferredExp.Empty() {
		cost2, card := plan.Cost, plan.Card
		n := 0
		for t := plan.DeferredExp.Next(0); t >= 0; t = plan.DeferredExp.Next(t + 1) {
			sel, k := sc.ExpensiveSel(t)
			n += k
			card *= sel
		}
		cost2 += cfg.ExpensivePredCost(plan.Card, n)
		plan = &memo.Plan{
			Op: plan.Op, Left: plan.Left, Right: plan.Right,
			Tables: plan.Tables, Order: plan.Order, Part: plan.Part,
			Cost: cost2, Card: card, Pipelined: plan.Pipelined,
		}
	}

	if len(blk.GroupBy) > 0 {
		gbOrder := props.Order{Cols: blk.GroupBy}
		ordered := gbOrder.SetSubsetOfUnder(props.Order{Cols: orderColsOf(plan)}, eq) && plan.Order.Len() >= len(blk.GroupBy)
		if root != nil {
			if p := root.BestWithOrder(gbOrder, eq); p != nil && p.Cost+cfg.GroupByCost(p.Card, groupCount(blk, p), true) < plan.Cost+cfg.GroupByCost(plan.Card, groupCount(blk, plan), false) {
				plan, ordered = p, true
			}
		}
		groups := groupCount(blk, plan)
		plan = &memo.Plan{
			Op: memo.OpGroupBy, Left: plan, Tables: plan.Tables,
			Order: plan.Order, Part: plan.Part,
			Cost: plan.Cost + cfg.GroupByCost(plan.Card, groups, ordered),
			Card: groups,
		}
	}

	// FETCH FIRST N ROWS: a pipelined plan stops after N rows; charge it
	// only the fraction of its cost it actually runs. Blocking plans pay in
	// full before the first row.
	if blk.FirstN > 0 && len(blk.GroupBy) == 0 && len(blk.OrderBy) == 0 && root != nil {
		bestAdj := math.Inf(1)
		var pick *memo.Plan
		for _, p := range root.Plans {
			adj := p.Cost
			if p.Pipelined && p.Card > float64(blk.FirstN) {
				adj = p.Cost * float64(blk.FirstN) / p.Card
			}
			if adj < bestAdj {
				bestAdj, pick = adj, p
			}
		}
		if pick != nil {
			plan = &memo.Plan{
				Op: pick.Op, Left: pick.Left, Right: pick.Right,
				Tables: pick.Tables, Order: pick.Order, Part: pick.Part,
				Cost: bestAdj, Card: math.Min(pick.Card, float64(blk.FirstN)),
				Pipelined: pick.Pipelined,
			}
		}
	}

	if len(blk.OrderBy) > 0 {
		want := props.Order{Cols: blk.OrderBy}
		if !want.PrefixOfUnder(plan.Order, eq) {
			alt := (*memo.Plan)(nil)
			if root != nil && len(blk.GroupBy) == 0 {
				alt = root.BestWithOrder(want, eq)
			}
			sorted := &memo.Plan{
				Op: memo.OpSort, Left: plan, Tables: plan.Tables,
				Order: want, Part: plan.Part,
				Cost: plan.Cost + cfg.SortCost(plan.Card),
				Card: plan.Card,
			}
			if alt != nil && alt.Cost < sorted.Cost {
				plan = alt
			} else {
				plan = sorted
			}
		}
	}
	return plan
}

// orderColsOf returns the delivered order columns of a plan.
func orderColsOf(p *memo.Plan) []query.ColID { return p.Order.Cols }

// groupCount estimates the number of groups: the product of grouping-column
// NDVs capped by the input cardinality.
func groupCount(blk *query.Block, input *memo.Plan) float64 {
	groups := 1.0
	for _, c := range blk.GroupBy {
		groups *= blk.Column(c).Col.NDV
	}
	if groups > input.Card {
		groups = input.Card
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}
