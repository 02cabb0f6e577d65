// Package plangen implements the real plan-generation path of the
// reproduced optimizer: access plans for base tables (scans, index scans,
// eager SORT enforcers), the three join methods with their property
// propagation behaviour (Table 2 of the paper), partition handling for the
// shared-nothing parallel version (co-located joins, repartition enforcers,
// eager materialization of (order, partition) combinations), and
// property-aware pruning into the MEMO.
//
// The generator keeps per-join-method counters of plans *generated* (before
// pruning) — the ground truth against which the paper's estimator is
// evaluated in Figure 5 — and wall-clock timers per join method plus the
// time spent saving plans into the MEMO, which together regenerate the
// Figure 2 compilation-time breakdown. The timers are laps of one monotonic
// clock, read once per phase boundary, so no nanosecond is counted twice.
package plangen

import (
	"math"
	"time"
	"unsafe"

	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/knobs"
	"cote/internal/memo"
	"cote/internal/optctx"
	"cote/internal/props"
	"cote/internal/query"
	"cote/internal/resource"
)

// Counters aggregates what one optimization run generated and where its
// time went.
type Counters struct {
	// Generated counts join plans generated per method, before pruning.
	Generated [props.NumJoinMethods]int
	// AccessPlans counts scan and index-scan plans.
	AccessPlans int
	// EnforcerPlans counts SORT and REPARTITION enforcer plans.
	EnforcerPlans int
	// PilotPruned counts join plans discarded by the pilot-pass bound.
	PilotPruned int

	// GenTime is the wall time spent generating (costing) plans per join
	// method; SaveTime is the time spent committing plans into the MEMO
	// ("plan saving" in Figure 2: pruning and the pilot bound); AccessTime
	// covers base-table access and enforcer generation. The three are
	// disjoint laps of one clock, so their sum never exceeds the block's
	// wall time.
	GenTime    [props.NumJoinMethods]time.Duration
	SaveTime   time.Duration
	AccessTime time.Duration
}

// TotalGenerated returns the total number of join plans generated.
func (c *Counters) TotalGenerated() int {
	t := 0
	for _, g := range c.Generated {
		t += g
	}
	return t
}

// Merge adds o's counts and timers into c.
func (c *Counters) Merge(o *Counters) {
	for m := range c.Generated {
		c.Generated[m] += o.Generated[m]
		c.GenTime[m] += o.GenTime[m]
	}
	c.AccessPlans += o.AccessPlans
	c.EnforcerPlans += o.EnforcerPlans
	c.PilotPruned += o.PilotPruned
	c.SaveTime += o.SaveTime
	c.AccessTime += o.AccessTime
}

// Options configures a Generator.
type Options struct {
	// Config selects the cost configuration (serial or parallel).
	Config *cost.Config
	// OrderPolicy is the generation policy for order properties; DB2 (and
	// hence the default here) is eager.
	OrderPolicy props.GenerationPolicy
	// PilotBound, when positive, drops any generated join plan whose cost
	// exceeds it — the pilot-pass search-space reduction discussed in
	// Section 6.1.
	PilotBound float64
	// Exec, when non-nil, receives batched generated-plan progress ticks —
	// the numerator of the live progress meter and the trigger for the
	// plan-budget abort. Join-method plans only, matching the estimator's
	// predicted total.
	Exec *optctx.Ctx
}

// Generator produces plans when driven by the join enumerator's hooks. One
// Generator serves one goroutine; Reset readies a used one for another block.
type Generator struct {
	// scratch is the generator's working memory, kept across Reset. It is
	// first so the hit memo's 64-byte sets start on cache-line boundaries.
	scratch

	blk      *query.Block
	sc       *props.Scope
	mem      *memo.Memo
	card     *cost.Estimator
	cfg      *cost.Config
	policy   props.GenerationPolicy
	parallel bool
	bound    float64
	exec     *optctx.Ctx
	// ticks counts join plans generated since the last progress flush; the
	// batch keeps the shared atomic off the per-plan hot path.
	ticks int64

	// sink, when set, receives finalized join plans instead of committing
	// them to the MEMO, so a test can inspect every generated plan.
	sink func(result *memo.Entry, p *memo.Plan)

	// base and last are the lap clock: lap reads the monotonic time since
	// base once and hands out the time since the previous read.
	base time.Time
	last time.Duration

	Counters Counters
}

// scratch is the working memory of one Generator: the free list, the
// interned properties and the slice buffers reused join over join, so the
// steady state of one optimization allocates almost nothing — and, since
// Reset keeps all of it, neither does the next block of a generator the
// optimizer's pooled workspace reuses. None of it is reachable from a plan:
// plans and their columns live in the MEMO.
type scratch struct {
	// hits memoizes the cost model's buffer hit ratios. It survives Reset as
	// is: the function is pure, so entries from an earlier query stay valid.
	// A fixed array, not charged to the accountant.
	hits cost.HitMemo

	// free recycles plans the MEMO rejected on arrival or the pilot bound
	// cut: they were never inserted, so nothing references them. Plans
	// inserted and later pruned are deliberately not recycled: they may
	// already be another plan's child or an enforcer's source.
	free []*memo.Plan
	// pending holds the join plans of one join-method call until commit
	// inserts them, in emission order, when the call returns.
	pending []*memo.Plan
	// orders and parts intern the merge orders and repartitions every join
	// asks for again (see internOrder).
	orders map[internKey]props.Order
	parts  map[internKey]props.Partition

	ocBuf, icBuf  []query.ColID
	jcBuf         []query.ColID
	outsBuf       []props.Order
	insBuf        []props.Order
	emittedBuf    props.OrderList
	nlOrdersBuf   props.OrderList
	partsBuf      props.PartitionList
	candPartsBuf  []props.Partition
	completeParts props.PartitionList
	completeOrds  props.OrderList
	baseOrders    props.BaseOrders

	// maxCols, maxPending and maxFree are the block's widest join (in join
	// columns), largest commit batch and longest free list: what Finish
	// charges for the buffers.
	maxCols, maxPending, maxFree int
}

// Accounting sizes of the scratch element types.
var (
	colIDBytes = int64(unsafe.Sizeof(*new(query.ColID)))
	orderBytes = int64(unsafe.Sizeof(props.Order{}))
	partBytes  = int64(unsafe.Sizeof(props.Partition{}))
)

// New builds a plan generator writing into mem. The cardinality estimator
// should be the full-mode one; the Generator shares it with the enumerator
// so both see identical logical properties.
func New(blk *query.Block, sc *props.Scope, mem *memo.Memo, card *cost.Estimator, opts Options) *Generator {
	g := new(Generator)
	g.Reset(blk, sc, mem, card, opts)
	return g
}

// Reset readies the generator for a block as New would, keeping its scratch:
// the hit memo and the buffers' capacities.
func (g *Generator) Reset(blk *query.Block, sc *props.Scope, mem *memo.Memo, card *cost.Estimator, opts Options) {
	cfg := knobs.CostConfig(opts.Config)
	g.blk, g.sc, g.mem, g.card, g.cfg = blk, sc, mem, card, cfg
	g.policy = opts.OrderPolicy
	g.parallel = cfg.Nodes > 1
	g.bound = opts.PilotBound
	g.exec = opts.Exec
	g.ticks = 0
	g.sink = nil
	g.Counters = Counters{}
	g.maxCols, g.maxPending, g.maxFree = 0, 0, 0
	g.base, g.last = time.Now(), 0
}

// Finish ends the generator's block: it pushes the generated-plan count still
// sitting in the local batch to the execution context, charges the run
// accountant for what the block used of the scratch buffers, and drops every
// reference to the block's MEMO and run, so a reused generator pins neither.
// Call it once the driving enumeration returned.
func (g *Generator) Finish() {
	if g.exec != nil && g.ticks > 0 {
		g.exec.TickGenerated(g.ticks)
		g.ticks = 0
	}
	g.exec.Resources().Charge(resource.KindScratch, g.bufBytes())
	g.exec, g.mem = nil, nil
	clear(g.free)
	g.free = g.free[:0]
	clear(g.pending[:cap(g.pending)])
	clear(g.orders)
	clear(g.parts)
}

// bufBytes is what the block used of the scratch buffers: their high-water
// lengths at their element sizes — the join-column buffers, the merge
// candidates (one per join column plus the composite), in parallel mode the
// joined columns and the one repartition candidate, the commit batch and the
// free list. Never their capacities: those remember the largest block a
// reused generator ever served.
func (g *Generator) bufBytes() int64 {
	cols := int64(g.maxCols)
	merge := cols
	if cols > 1 {
		merge++
	}
	n := 2*cols*colIDBytes + 2*merge*orderBytes
	if g.parallel {
		n += 2*cols*colIDBytes + partBytes
	}
	return n + int64(g.maxPending+g.maxFree)*8
}

// newPlan returns a plan slot — a recycled one, or one carved from the
// MEMO's node arena. Its content is stale: callers assign the whole Plan.
func (g *Generator) newPlan() *memo.Plan {
	if k := len(g.free); k > 0 {
		p := g.free[k-1]
		g.free = g.free[:k-1]
		return p
	}
	return g.mem.NewPlan()
}

// recycle returns a plan that is provably unreferenced (it was never
// inserted into the MEMO) to the free list.
func (g *Generator) recycle(p *memo.Plan) {
	g.free = append(g.free, p)
	g.maxFree = max(g.maxFree, len(g.free))
}

// Hooks returns the enumerator callbacks that drive this generator.
func (g *Generator) Hooks() enum.Hooks {
	return enum.Hooks{
		Init:     g.initEntry,
		Join:     g.joinEntry,
		Complete: g.completeEntry,
	}
}

// initEntry generates access plans for single-table entries. Composite
// entries get plans only through joins.
func (g *Generator) initEntry(e *memo.Entry) {
	if e.Tables.Len() != 1 {
		return
	}
	g.lap()
	t := e.Tables.Min()
	rows := g.card.Rows(t)
	fc := g.card.FilteredCard(t)
	part := g.basePartition(t)

	// Table scan: the always-available don't-care plan. Scans stream, so
	// they are pipelined. Expensive predicates are evaluated here (the
	// apply-at-scan variant); a defer variant follows below.
	expSel, expN := g.sc.ExpensiveSel(t)
	p := g.newPlan()
	*p = memo.Plan{
		Op: memo.OpTableScan, Tables: e.Tables,
		Cost: g.cfg.ScanCost(&g.hits, rows, fc) + g.cfg.ExpensivePredCost(rows, expN),
		Card: fc, Part: part,
		Pipelined: true,
	}
	g.savePlan(e, p)
	if expN > 0 {
		// Defer-past-joins variant (Table 1, row 5): cheaper to produce,
		// more rows flow upward, and the finishing step pays the predicate
		// cost on whatever survives the joins.
		g.Counters.AccessPlans++
		p := g.newPlan()
		*p = memo.Plan{
			Op: memo.OpTableScan, Tables: e.Tables,
			Cost: g.cfg.ScanCost(&g.hits, rows, fc/expSel), Card: fc / expSel, Part: part,
			Pipelined:   true,
			DeferredExp: e.Tables,
		}
		g.savePlan(e, p)
	}

	// Index scans deliver their index order naturally. Base orders arrive in
	// scratch; the plans that carry them outlive this call and get a copy in
	// the MEMO's column arena, which lives exactly as long as they do.
	for _, o := range g.sc.NaturalBaseOrders(t, &e.Equiv, &g.baseOrders) {
		o.Cols = g.mem.KeepCols(o.Cols)
		match := g.indexMatchRows(t, o, rows, fc)
		p := g.newPlan()
		*p = memo.Plan{
			Op: memo.OpIndexScan, Tables: e.Tables,
			Order: g.retireOrDeliver(o, e), Part: part,
			Cost: g.cfg.IndexScanCost(&g.hits, rows, match), Card: fc,
			Pipelined: true,
		}
		g.savePlan(e, p)
	}
	g.Counters.AccessPlans += len(e.Plans)

	// Eager order policy: enforce every pushed-down interesting order that
	// no natural plan delivers.
	if g.policy == props.Eager {
		base := e.Best()
		for _, o := range g.sc.EagerBaseOrders(t, &e.Equiv, &g.baseOrders) {
			if e.BestWithOrder(o, &e.Equiv) != nil {
				continue
			}
			o.Cols = g.mem.KeepCols(o.Cols)
			g.Counters.EnforcerPlans++
			p := g.newPlan()
			*p = memo.Plan{
				Op: memo.OpSort, Left: base, Tables: e.Tables,
				Order: o, Part: part,
				Cost: base.Cost + g.cfg.SortCost(fc)*sortWidthFactor(o),
				Card: fc,
			}
			g.savePlan(e, p)
		}
	}
	g.Counters.AccessTime += g.lap()
}

// indexMatchRows estimates the rows fetched through an index whose leading
// column is o.Cols[0]: the filtered cardinality when a local equality
// predicate binds that column, the whole table otherwise.
func (g *Generator) indexMatchRows(t int, o props.Order, rows, fc float64) float64 {
	if o.Empty() {
		return rows
	}
	for _, lp := range g.blk.LocalPreds {
		if lp.Col == o.Cols[0] && lp.Op == query.Eq {
			return fc
		}
	}
	return rows
}

// sortWidthFactor makes wider sort keys slightly more expensive, so a sort
// on (a) is not dominated for free by a sort on (a, b).
func sortWidthFactor(o props.Order) float64 {
	return 1 + 0.05*float64(o.Len()-1)
}

// basePartition returns the physical partitioning of table t (parallel
// mode, lazy generation), or don't-care.
func (g *Generator) basePartition(t int) props.Partition {
	if !g.parallel {
		return props.Partition{}
	}
	p, ok := g.sc.NaturalBasePartition(t)
	if !ok {
		return props.Partition{}
	}
	return p
}

// joinEntry generates join plans for one enumerated (outer, inner) join.
// Each method call's plans are committed when it returns: generation reads
// only the outer and inner entries, never result.Plans, so deferring the
// commits changes no plan, count or pruning decision.
func (g *Generator) joinEntry(outer, inner, result *memo.Entry) {
	g.ocBuf, g.icBuf = g.blk.AppendJoinColsFromSides(g.mem.Sides(outer), g.mem.Sides(inner), g.ocBuf[:0], g.icBuf[:0])
	outerCols, innerCols := g.ocBuf, g.icBuf
	g.maxCols = max(g.maxCols, len(outerCols))
	candidates := g.candidatePartitions(outer, inner, result, outerCols, innerCols)
	g.lap()
	for _, pp := range candidates {
		g.genNLJN(outer, inner, result, pp)
		g.commit(result, props.NLJN)
		if len(outerCols) > 0 {
			g.genMGJN(outer, inner, result, pp, outerCols, innerCols)
			g.commit(result, props.MGJN)
			g.genHSJN(outer, inner, result, pp)
			g.commit(result, props.HSJN)
		}
	}
}

// dcPartitions is the serial mode's single candidate execution partition;
// callers only range over the returned slice, so one shared instance serves
// every generator.
var dcPartitions = []props.Partition{{}}

// candidatePartitions returns the execution partitions of a join: every
// distinct partition present among input plans whose keys are covered by the
// join columns (a co-located execution), or — when none qualifies — a fresh
// repartition on the join columns, DB2's heuristic reproduced as the paper's
// Section 4 describes. Serial mode runs everything on the single don't-care
// partition. The returned slice is scratch owned by g, valid until the next
// joinEntry call.
func (g *Generator) candidatePartitions(outer, inner, result *memo.Entry, outerCols, innerCols []query.ColID) []props.Partition {
	if !g.parallel {
		return dcPartitions
	}
	g.jcBuf = append(append(g.jcBuf[:0], outerCols...), innerCols...)
	joinCols := g.jcBuf
	list := &g.partsBuf
	list.Reset()
	for _, e := range []*memo.Entry{outer, inner} {
		for _, p := range e.Plans {
			if p.Part.Empty() {
				continue
			}
			if p.Part.CoversJoinCols(joinCols, &result.Equiv) {
				list.Add(p.Part, &result.Equiv)
			}
		}
	}
	if list.Len() == 0 {
		if len(outerCols) > 0 {
			// Interned: the partition escapes into stored plans, so it must
			// not alias the outerCols scratch buffer.
			g.candPartsBuf = append(g.candPartsBuf[:0], g.internPartition(g.cfg.Nodes, outerCols))
			return g.candPartsBuf
		}
		// Cartesian product: no co-location key; run on the don't-care
		// distribution (inner replicated).
		return dcPartitions
	}
	return list.Partitions()
}

// innerInput returns the inner-side input plan for an execution on pp and
// the repartition cost to co-locate it, preferring an already co-located
// plan.
func (g *Generator) innerInput(inner *memo.Entry, pp props.Partition, eq *query.Equiv) (*memo.Plan, float64) {
	if !g.parallel || pp.Empty() {
		best := inner.Best()
		extra := 0.0
		if g.parallel {
			extra = g.cfg.RepartitionCost(best.Card) // replicate for products
		}
		return best, extra
	}
	if colocated := inner.BestWithPartition(pp, eq); colocated != nil {
		return colocated, 0
	}
	best := inner.Best()
	return best, g.cfg.RepartitionCost(best.Card)
}

// genNLJN generates nested-loops plans executing on partition pp: one per
// outer plan co-located on pp (propagating its order — the full propagation
// of Table 2), plus one from the cheapest outer repartitioned (order lost).
func (g *Generator) genNLJN(outer, inner, result *memo.Entry, pp props.Partition) {
	ip, innerExtra := g.innerInput(inner, pp, &result.Equiv)
	innerCost := ip.Cost + innerExtra
	// The cardinality-dependent cost terms are shared by every outer plan of
	// one cardinality — all of them, unless deferred expensive predicates
	// inflate some plans' row counts.
	var terms cost.NLJNTerms
	termsCard := math.NaN()
	made := 0
	for _, po := range outer.Plans {
		if g.parallel && !po.Part.EqualUnder(pp, &result.Equiv) {
			continue
		}
		made++
		if po.Card != termsCard {
			terms, termsCard = g.cfg.NLJNTerms(&g.hits, po.Card, ip.Card, result.Card), po.Card
		}
		g.emitJoin(result, memo.OpNLJN, po, ip, terms.Cost(po.Cost, innerCost),
			g.propagateOrder(po, result), pp)
	}
	if g.parallel && made == 0 {
		// No co-located outer: repartition the cheapest one. Repartitioning
		// destroys order, so the eager policy re-sorts the repartitioned
		// stream once per interesting order present among the outer's plans
		// — real parallel optimization explores the full (order, partition)
		// cross product, which is exactly what the estimator's separate
		// lists summarize by multiplication.
		po := outer.Best()
		repart := g.cfg.RepartitionCost(po.Card)
		terms := g.cfg.NLJNTerms(&g.hits, po.Card, ip.Card, result.Card)
		g.emitJoin(result, memo.OpNLJN, po, ip, terms.Cost(po.Cost+repart, innerCost),
			props.Order{}, pp)
		orders := &g.nlOrdersBuf
		orders.Reset()
		for _, p := range outer.Plans {
			if p.Order.Empty() || p.OrderKnownRetired {
				continue
			}
			if !orders.Add(p.Order, &result.Equiv) {
				continue
			}
			resort := g.cfg.SortCost(po.Card) * sortWidthFactor(p.Order)
			g.emitJoin(result, memo.OpNLJN, po, ip, terms.Cost(po.Cost+repart+resort, innerCost),
				g.retireOrDeliver(p.Order, result), pp)
		}
	}
}

// MergeCandidates returns the sort orders a merge join between the given
// join-column pairs considers: one per individual equality predicate
// (remaining predicates applied as residuals) plus, with several
// predicates, the full composite order. Both the real generator and the
// estimator derive merge-join plan counts from this shared definition.
func MergeCandidates(outerCols, innerCols []query.ColID) (outs, ins []props.Order) {
	for i := range outerCols {
		outs = append(outs, props.OrderOn(outerCols[i]))
		ins = append(ins, props.OrderOn(innerCols[i]))
	}
	if len(outerCols) > 1 {
		outs = append(outs, props.OrderOn(outerCols...))
		ins = append(ins, props.OrderOn(innerCols...))
	}
	return outs, ins
}

// mergeCandidates is the generator's allocation-lean MergeCandidates: the
// candidate orders are interned (they escape into stored plans) and the
// slices are per-generator scratch, valid until the next call.
func (g *Generator) mergeCandidates(outerCols, innerCols []query.ColID) (outs, ins []props.Order) {
	outs, ins = g.outsBuf[:0], g.insBuf[:0]
	for i := range outerCols {
		outs = append(outs, g.internOrder(outerCols[i:i+1]))
		ins = append(ins, g.internOrder(innerCols[i:i+1]))
	}
	if len(outerCols) > 1 {
		outs = append(outs, g.internOrder(outerCols))
		ins = append(ins, g.internOrder(innerCols))
	}
	g.outsBuf, g.insBuf = outs, ins
	return outs, ins
}

// genMGJN generates sort-merge plans on partition pp: one enforced plan per
// merge candidate order (eager policy — inputs are sorted when not
// naturally ordered), plus one coverage plan per outer plan whose order
// strictly subsumes a candidate (the property subsumption effect of
// Section 3.3 — requesting a plan ordered on o2 returns plans ordered on
// any more general o1 as well).
func (g *Generator) genMGJN(outer, inner, result *memo.Entry, pp props.Partition, outerCols, innerCols []query.ColID) {
	outs, ins := g.mergeCandidates(outerCols, innerCols)

	emitted := &g.emittedBuf // output orders already produced for this join
	emitted.Reset()
	for i := range outs {
		if !emitted.Add(outs[i], &result.Equiv) {
			continue // equivalent predicates collapse to one merge order
		}
		op, opExtra := g.sideInput(outer, pp, outs[i], &result.Equiv)
		ip, ipExtra := g.sideInput(inner, pp, ins[i], &result.Equiv)
		g.emitJoin(result, memo.OpMGJN, op, ip,
			g.cfg.MGJNCost(op.Cost+opExtra, op.Card, ip.Cost+ipExtra, ip.Card, result.Card),
			g.retireOrDeliver(outs[i], result), pp)
	}

	for _, po := range outer.Plans {
		if g.parallel && !po.Part.EqualUnder(pp, &result.Equiv) {
			continue
		}
		if po.Order.Empty() {
			continue
		}
		covered := -1
		for i := range outs {
			if po.Order.Len() > outs[i].Len() && outs[i].PrefixOfUnder(po.Order, &result.Equiv) {
				covered = i
				break
			}
		}
		if covered < 0 || !emitted.Add(po.Order, &result.Equiv) {
			continue
		}
		ip, ipExtra := g.sideInput(inner, pp, ins[covered], &result.Equiv)
		g.emitJoin(result, memo.OpMGJN, po, ip,
			g.cfg.MGJNCost(po.Cost, po.Card, ip.Cost+ipExtra, ip.Card, result.Card),
			g.propagateOrder(po, result), pp)
	}
}

// sideInput returns a merge-join input delivering the required order on
// partition pp: a naturally ordered co-located plan if one exists, else the
// cheapest suitable plan plus enforcer (sort, and repartition when not
// co-located) costs.
func (g *Generator) sideInput(e *memo.Entry, pp props.Partition, required props.Order, eq *query.Equiv) (*memo.Plan, float64) {
	if g.parallel && !pp.Empty() {
		if p := e.BestWithPartition(pp, eq); p != nil {
			if required.PrefixOfUnder(p.Order, eq) {
				return p, 0
			}
			return p, g.cfg.SortCost(p.Card) * sortWidthFactor(required)
		}
		best := e.Best()
		return best, g.cfg.RepartitionCost(best.Card) + g.cfg.SortCost(best.Card)*sortWidthFactor(required)
	}
	if p := e.BestWithOrder(required, eq); p != nil {
		return p, 0
	}
	best := e.Best()
	return best, g.cfg.SortCost(best.Card) * sortWidthFactor(required)
}

// genHSJN generates the single hash-join plan for this orientation on pp:
// hash joins propagate no order (Table 2), so exactly one plan per
// enumerated join arises — the "exactly twice the number of joins" baseline
// of Figure 5(c).
func (g *Generator) genHSJN(outer, inner, result *memo.Entry, pp props.Partition) {
	op, opExtra := g.dcInput(outer, pp, &result.Equiv)
	ip, ipExtra := g.dcInput(inner, pp, &result.Equiv)
	g.emitJoin(result, memo.OpHSJN, op, ip,
		g.cfg.HSJNCost(&g.hits, op.Cost+opExtra, op.Card, ip.Cost+ipExtra, ip.Card, result.Card),
		props.Order{}, pp)
}

// dcInput returns the cheapest input co-located on pp, or the cheapest
// overall plus repartition cost.
func (g *Generator) dcInput(e *memo.Entry, pp props.Partition, eq *query.Equiv) (*memo.Plan, float64) {
	if g.parallel && !pp.Empty() {
		if p := e.BestWithPartition(pp, eq); p != nil {
			return p, 0
		}
	}
	best := e.Best()
	extra := 0.0
	if g.parallel {
		extra = g.cfg.RepartitionCost(best.Card)
	}
	return best, extra
}

// propagateOrder returns the order a join output inherits from its outer
// input: the outer's order while it is still interesting at the result,
// don't-care once retired. In parallel mode a retired order whose plan
// remains distinct through its partition is conservatively kept and only
// marked — the compound-property behaviour that makes the paper's
// separate-list estimates slightly low.
func (g *Generator) propagateOrder(po *memo.Plan, result *memo.Entry) props.Order {
	if po.Order.Empty() {
		return props.Order{}
	}
	if g.sc.OrderUseful(po.Order, &result.Equiv) {
		return po.Order
	}
	if g.parallel && !po.Part.Empty() {
		return po.Order // kept conservatively; marked by emitJoin
	}
	return props.Order{}
}

// retireOrDeliver returns o if still interesting at the result, else DC.
func (g *Generator) retireOrDeliver(o props.Order, result *memo.Entry) props.Order {
	if g.sc.OrderUseful(o, &result.Equiv) {
		return o
	}
	return props.Order{}
}

// lap returns the time since the previous lap (or since New) with one
// monotonic clock read. Callers add it to the timer of the phase that just
// ended, or drop it to leave the time to Figure 2's "other".
func (g *Generator) lap() time.Duration {
	now := time.Since(g.base)
	d := now - g.last
	g.last = now
	return d
}

// commit ends one join-method call: its generation lap goes to the method,
// its plans are committed in emission order, and the commit lap goes to
// plan saving.
func (g *Generator) commit(result *memo.Entry, m props.JoinMethod) {
	g.Counters.GenTime[m] += g.lap()
	g.maxPending = max(g.maxPending, len(g.pending))
	for _, p := range g.pending {
		g.commitJoin(result, p)
	}
	g.pending = g.pending[:0]
	g.Counters.SaveTime += g.lap()
}

// emitJoin finalizes one generated join plan: counts it, constructs it in a
// recycled or newly carved slot, and queues it for commit (or hands it to the sink, when a test
// set one).
// Pipelineability follows Table 1's rule through the propagation classes:
// an NLJN streams with its outer; merge and hash joins block (eager sorts
// and hash builds materialize).
func (g *Generator) emitJoin(result *memo.Entry, op memo.Operator, left, right *memo.Plan, planCost float64, order props.Order, pp props.Partition) {
	m := op.JoinMethod()
	g.Counters.Generated[m]++
	if g.exec != nil {
		if g.ticks++; g.ticks == tickBatch {
			g.exec.TickGenerated(tickBatch)
			g.ticks = 0
		}
	}
	p := g.newPlan()
	*p = memo.Plan{
		Op: op, Left: left, Right: right, Tables: result.Tables,
		Order: order, Part: pp, Cost: planCost, Card: result.Card,
		Pipelined: props.PipelinePropagation(m) == props.Full && left != nil && left.Pipelined,
	}
	if left != nil && right != nil {
		p.DeferredExp = left.DeferredExp.Union(right.DeferredExp)
		// Deferred predicates have not reduced the inputs, so the output
		// carries proportionally more rows than the entry's (all-applied)
		// logical cardinality.
		for t := p.DeferredExp.Next(0); t >= 0; t = p.DeferredExp.Next(t + 1) {
			if sel, _ := g.sc.ExpensiveSel(t); sel > 0 {
				p.Card /= sel
			}
		}
	}
	if !order.Empty() && !g.sc.OrderUseful(order, &result.Equiv) {
		p.OrderKnownRetired = true
	}
	if g.sink != nil {
		g.sink(result, p)
		return
	}
	g.pending = append(g.pending, p)
}

// tickBatch is the progress-tick batch size: generated-plan counts reach
// the shared execution context once per this many join plans.
const tickBatch = 64

// commitJoin applies the order-sensitive half of emitJoin: the pilot bound
// check and MEMO insertion, whose reads of result.Plans depend on the plans
// committed before it in the canonical enumeration order. The caller times
// it.
func (g *Generator) commitJoin(result *memo.Entry, p *memo.Plan) {
	// The pilot bound never prunes an entry's only plan: the dynamic
	// program needs at least one plan per entry to proceed (the paper's
	// pilot-pass discussion assumes most partial plans stay under the full
	// plan's cost, but intermediate entries off the final plan can exceed
	// it wholesale). A plan that ordinary property-aware pruning would have
	// discarded anyway is not charged to the pilot pass — the paper's <=10%
	// figure counts the plans the bound removes on top of normal pruning.
	if g.bound > 0 && p.Cost > g.bound && len(result.Plans) > 0 {
		if !g.mem.Dominated(result, p) {
			g.Counters.PilotPruned++
		}
		g.recycle(p)
		return
	}
	if !g.mem.InsertPlan(result, p) {
		g.recycle(p) // rejected on arrival: provably unreferenced
	}
}

// savePlan inserts a non-join plan, recycling it when the MEMO rejects it on
// arrival. The lap before it was spent building the plan, so it goes to
// AccessTime; the insert's lap goes to SaveTime.
func (g *Generator) savePlan(e *memo.Entry, p *memo.Plan) {
	g.Counters.AccessTime += g.lap()
	if !g.mem.InsertPlan(e, p) {
		g.recycle(p)
	}
	g.Counters.SaveTime += g.lap()
}

// completeEntry runs the parallel eager enforcement pass once an entry is
// final: every interesting order is materialized on every partition present
// among the entry's plans, generating the (order, partition) combinations
// that real parallel optimization explores and the estimator's separate
// lists deliberately do not enumerate.
func (g *Generator) completeEntry(e *memo.Entry) {
	if !g.parallel || e.Tables.Len() < 2 || g.policy != props.Eager {
		return
	}
	g.lap()
	// Distinct partitions present.
	parts := &g.completeParts
	parts.Reset()
	hasDC := false
	for _, p := range e.Plans {
		if p.Part.Empty() {
			hasDC = true
			continue
		}
		parts.Add(p.Part, &e.Equiv)
	}
	// Interesting orders present on some plan (origin of orders stays at
	// the base tables; this pass only spreads them across partitions).
	orders := &g.completeOrds
	orders.Reset()
	for _, p := range e.Plans {
		if !p.Order.Empty() && !p.OrderKnownRetired {
			orders.Add(p.Order, &e.Equiv)
		}
	}
	candidates := parts.Partitions()
	if hasDC {
		candidates = append(candidates, props.Partition{})
	}
	for _, pp := range candidates {
		src := e.BestWithPartition(pp, &e.Equiv)
		if src == nil {
			continue
		}
		for _, o := range orders.Orders() {
			already := false
			for _, p := range e.Plans {
				if p.Part.EqualUnder(pp, &e.Equiv) && o.PrefixOfUnder(p.Order, &e.Equiv) {
					already = true
					break
				}
			}
			if already {
				continue
			}
			g.Counters.EnforcerPlans++
			p := g.newPlan()
			*p = memo.Plan{
				Op: memo.OpSort, Left: src, Tables: e.Tables,
				Order: o, Part: pp,
				Cost: src.Cost + g.cfg.SortCost(src.Card)*sortWidthFactor(o),
				Card: src.Card,
			}
			g.savePlan(e, p)
		}
	}
	g.Counters.AccessTime += g.lap()
}
