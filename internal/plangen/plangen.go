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
// Figure 2 compilation-time breakdown.
package plangen

import (
	"math"
	"slices"
	"sync"
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
	// method; SaveTime is the time spent inserting plans into the MEMO
	// ("plan saving" in Figure 2); AccessTime covers base-table access and
	// enforcer generation.
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
// Generator serves one goroutine.
type Generator struct {
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

	// scratch is the pooled per-goroutine working memory (arena + reusable
	// slices); its fields are promoted so the hot path reads g.ocBuf etc.
	*scratch

	Counters Counters
}

// scratch is the per-goroutine working memory of one Generator: the plan
// arena plus the slice buffers reused join over join so the steady state of
// one optimization allocates almost nothing. It is recycled across requests
// through scratchPool (ReleaseScratch) so a serving process's steady state
// also stops allocating them per compile. Recycling the arena is sound: the
// free list holds only plans that were never inserted into any MEMO, and a
// pooled current chunk pins at most one chunk's worth of a finished
// request's plans until it is overwritten.
type scratch struct {
	// hits memoizes the cost model's buffer hit ratios. It survives pooling
	// as is: the function is pure, so entries from an earlier query stay
	// valid. A fixed array, not charged to the accountant; first in the
	// struct so its 64-byte sets start on cache-line boundaries.
	hits cost.HitMemo

	// arena batches Plan allocations and recycles MEMO-rejected plans.
	arena planArena

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

	// bufCharged is the slice-buffer capacity already charged to the run
	// accountant, so growth is charged as a delta and reused capacity is
	// charged once. ReleaseScratch zeroes it with the arena's tally.
	bufCharged int64
}

// Accounting sizes of the scratch element types.
var (
	colIDBytes = int64(unsafe.Sizeof(*new(query.ColID)))
	orderBytes = int64(unsafe.Sizeof(props.Order{}))
	partBytes  = int64(unsafe.Sizeof(props.Partition{}))
)

// chargeBufGrowth settles the scratch slice buffers' capacity against the
// run accountant: only the growth over what this scratch already charged,
// called when the scratch is attached (pool-retained capacity) and when it
// is released (capacity grown during the run).
func (s *scratch) chargeBufGrowth() {
	if s.arena.acct == nil {
		return
	}
	total := int64(cap(s.ocBuf)+cap(s.icBuf)+cap(s.jcBuf))*colIDBytes +
		int64(cap(s.outsBuf)+cap(s.insBuf))*orderBytes +
		int64(cap(s.candPartsBuf))*partBytes +
		int64(cap(s.arena.free))*8
	if total > s.bufCharged {
		s.arena.acct.Charge(resource.KindScratch, total-s.bufCharged)
		s.bufCharged = total
	}
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// ReleaseScratch returns the generator's pooled working memory. Call it once
// the generator is finished (no hook will fire again); using the generator
// afterwards panics. Safe to call twice.
func (g *Generator) ReleaseScratch() {
	s := g.scratch
	if s == nil {
		return
	}
	g.scratch = nil
	s.chargeBufGrowth()
	// Zero the accounting state before pooling: the next borrower must start
	// from a clean tally against its own accountant (regression-tested, like
	// memo.Reset's accounting rule).
	s.arena.resetAccounting()
	s.bufCharged = 0
	s.ocBuf, s.icBuf, s.jcBuf = s.ocBuf[:0], s.icBuf[:0], s.jcBuf[:0]
	s.outsBuf, s.insBuf = s.outsBuf[:0], s.insBuf[:0]
	s.candPartsBuf = s.candPartsBuf[:0]
	scratchPool.Put(s)
}

// New builds a plan generator writing into mem. The cardinality estimator
// should be the full-mode one; the Generator shares it with the enumerator
// so both see identical logical properties.
func New(blk *query.Block, sc *props.Scope, mem *memo.Memo, card *cost.Estimator, opts Options) *Generator {
	cfg := knobs.CostConfig(opts.Config)
	g := &Generator{
		blk:      blk,
		sc:       sc,
		mem:      mem,
		card:     card,
		cfg:      cfg,
		policy:   opts.OrderPolicy,
		parallel: cfg.Nodes > 1,
		bound:    opts.PilotBound,
		exec:     opts.Exec,
		scratch:  scratchPool.Get().(*scratch),
	}
	g.arena.attach(opts.Exec.Resources())
	g.chargeBufGrowth()
	return g
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
	start := time.Now()
	t := e.Tables.Min()
	ref := g.blk.Tables[t]
	rows := ref.BaseRows()
	fc := g.card.FilteredCard(t)
	part := g.basePartition(t)

	// Table scan: the always-available don't-care plan. Scans stream, so
	// they are pipelined. Expensive predicates are evaluated here (the
	// apply-at-scan variant); a defer variant follows below.
	expSel, expN := g.sc.ExpensiveSel(t)
	p := g.arena.alloc()
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
		p := g.arena.alloc()
		*p = memo.Plan{
			Op: memo.OpTableScan, Tables: e.Tables,
			Cost: g.cfg.ScanCost(&g.hits, rows, fc/expSel), Card: fc / expSel, Part: part,
			Pipelined:   true,
			DeferredExp: e.Tables,
		}
		g.savePlan(e, p)
	}

	// Index scans deliver their index order naturally. Base orders arrive in
	// scratch; the plans that carry them outlive this call and get a copy.
	for _, o := range g.sc.NaturalBaseOrders(t, &e.Equiv, &g.baseOrders) {
		o.Cols = slices.Clone(o.Cols)
		match := g.indexMatchRows(t, o, rows, fc)
		p := g.arena.alloc()
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
			o.Cols = slices.Clone(o.Cols)
			g.Counters.EnforcerPlans++
			p := g.arena.alloc()
			*p = memo.Plan{
				Op: memo.OpSort, Left: base, Tables: e.Tables,
				Order: o, Part: part,
				Cost: base.Cost + g.cfg.SortCost(fc)*sortWidthFactor(o),
				Card: fc,
			}
			g.savePlan(e, p)
		}
	}
	g.Counters.AccessTime += time.Since(start)
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
func (g *Generator) joinEntry(outer, inner, result *memo.Entry) {
	g.ocBuf, g.icBuf = g.blk.AppendJoinCols(outer.Tables, inner.Tables, g.ocBuf[:0], g.icBuf[:0])
	outerCols, innerCols := g.ocBuf, g.icBuf
	candidates := g.candidatePartitions(outer, inner, result, outerCols, innerCols)
	for _, pp := range candidates {
		g.genNLJN(outer, inner, result, pp)
		if len(outerCols) > 0 {
			g.genMGJN(outer, inner, result, pp, outerCols, innerCols)
			g.genHSJN(outer, inner, result, pp)
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
			g.candPartsBuf = append(g.candPartsBuf[:0], g.sc.Intern().Partition(g.cfg.Nodes, outerCols))
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
	defer g.timeMethod(props.NLJN)()
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
	in := g.sc.Intern()
	outs, ins = g.outsBuf[:0], g.insBuf[:0]
	for i := range outerCols {
		outs = append(outs, in.Order1(outerCols[i]))
		ins = append(ins, in.Order1(innerCols[i]))
	}
	if len(outerCols) > 1 {
		outs = append(outs, in.Order(outerCols))
		ins = append(ins, in.Order(innerCols))
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
	defer g.timeMethod(props.MGJN)()
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
	defer g.timeMethod(props.HSJN)()
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

// timeMethod attributes the wall time of one join-generation call to the
// method, excluding the plan-saving time accrued inside it (which Figure 2
// reports separately).
func (g *Generator) timeMethod(m props.JoinMethod) func() {
	t0 := time.Now()
	save0 := g.Counters.SaveTime
	return func() {
		g.Counters.GenTime[m] += time.Since(t0) - (g.Counters.SaveTime - save0)
	}
}

// emitJoin finalizes one generated join plan: counts it, constructs it from
// the arena, and commits it (or hands it to the sink, when a test set one).
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
	p := g.arena.alloc()
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
	g.commitJoin(result, p)
}

// tickBatch is the progress-tick batch size: generated-plan counts reach
// the shared execution context once per this many join plans.
const tickBatch = 64

// FlushTicks pushes any generated-plan count still sitting in the local
// batch to the execution context. Call once per generator after its driving
// enumeration finished.
func (g *Generator) FlushTicks() {
	if g.exec != nil && g.ticks > 0 {
		g.exec.TickGenerated(g.ticks)
		g.ticks = 0
	}
}

// commitJoin applies the order-sensitive half of emitJoin: the pilot bound
// check and MEMO insertion, whose reads of result.Plans depend on the plans
// committed before it in the canonical enumeration order.
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
		g.arena.recycle(p)
		return
	}
	saveStart := time.Now()
	if !g.mem.InsertPlan(result, p) {
		g.arena.recycle(p) // rejected on arrival: provably unreferenced
	}
	g.Counters.SaveTime += time.Since(saveStart)
}

// savePlan inserts a non-join plan with save-time accounting, recycling it
// when the MEMO rejects it on arrival.
func (g *Generator) savePlan(e *memo.Entry, p *memo.Plan) {
	start := time.Now()
	if !g.mem.InsertPlan(e, p) {
		g.arena.recycle(p)
	}
	g.Counters.SaveTime += time.Since(start)
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
	start := time.Now()
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
			p := g.arena.alloc()
			*p = memo.Plan{
				Op: memo.OpSort, Left: src, Tables: e.Tables,
				Order: o, Part: pp,
				Cost: src.Cost + g.cfg.SortCost(src.Card)*sortWidthFactor(o),
				Card: src.Card,
			}
			g.savePlan(e, p)
		}
	}
	g.Counters.AccessTime += time.Since(start)
}
