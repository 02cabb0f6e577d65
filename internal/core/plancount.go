// Package core implements the paper's contribution: the COmpilation Time
// Estimator (COTE). It reuses the optimizer's join enumerator while
// bypassing plan generation, maintains interesting-property value lists in
// the MEMO structure to count the join plans each enumerated join would
// generate (the initialize / accumulate_plans algorithm of Table 3), and
// converts plan counts to time through a regression-calibrated linear model
// T = Tinst * sum(Ct * Pt). On top of the estimator it provides the paper's
// applications and extensions: the meta-optimizer of Figure 1, the
// join-count baseline it improves on, optimizer memory estimation, and
// single-pass multi-level ("piggyback") estimation.
package core

import (
	"slices"
	"unsafe"

	"cote/internal/bitset"
	"cote/internal/memo"
	"cote/internal/plangen"
	"cote/internal/props"
	"cote/internal/query"
)

// ListMode selects how multiple physical property types are maintained
// during estimation (Section 3.4 of the paper).
type ListMode int

// List modes.
const (
	// SeparateLists keeps one interesting-property list per property type
	// and estimates combined plan counts by multiplication — cheaper in
	// time and space, slightly underestimating (the paper's choice).
	SeparateLists ListMode = iota
	// CompoundLists keeps explicit (order, partition) vectors — the simple
	// solution of Section 3.4, more accurate and more expensive. Provided
	// for the ablation benchmarks.
	CompoundLists
)

// String names the mode.
func (m ListMode) String() string {
	if m == CompoundLists {
		return "compound"
	}
	return "separate"
}

// PlanCounts holds estimated (or actual) generated-plan counts per join
// method.
type PlanCounts struct {
	ByMethod [props.NumJoinMethods]int
}

// Total returns the total plan count.
func (p PlanCounts) Total() int {
	t := 0
	for _, v := range p.ByMethod {
		t += v
	}
	return t
}

// Add accumulates other into p.
func (p *PlanCounts) Add(other PlanCounts) {
	for m := range p.ByMethod {
		p.ByMethod[m] += other.ByMethod[m]
	}
}

// CountsFrom extracts actual generated-plan counts from a real
// optimization's counters, for estimate-versus-actual comparisons.
func CountsFrom(c plangen.Counters) PlanCounts {
	var out PlanCounts
	out.ByMethod = c.Generated
	return out
}

// propVec is one compound (order, partition) property vector.
type propVec struct {
	o props.Order
	p props.Partition
}

// counter is the plan-estimate mode engine for a single query block: the
// hook implementations of the paper's Table 3. The propagating one lives in
// the pooled workspace; EstimateLevels forks one count-only twin per level.
type counter struct {
	blk *query.Block
	sc  *props.Scope
	// mem is the block's MEMO; its arena keeps the columns of every order and
	// partition the propagating counter stores.
	mem      *memo.Memo
	parallel bool
	nodes    int
	policy   props.GenerationPolicy
	mode     ListMode
	// everyJoin disables the first-join-only propagation simplification
	// (DB2 experience item 4) for the ablation benchmark.
	everyJoin bool

	counts PlanCounts
	// expTables is the set of tables with expensive predicates; each adds a
	// defer-past-joins plan lane.
	expTables bitset.Set
	// pipeFactor is 2 when pipelineability is an interesting property
	// (FETCH FIRST queries): the separate pipeline "list" holds one
	// interesting value, and NLJN — the only method that propagates it —
	// generates both a pipelined and a blocking variant per order.
	pipeFactor int
	// joins counts the enumerated joins this counter accumulated.
	joins int
	// vecs holds compound property vectors per entry (CompoundLists only).
	// Forked level counters share this map and only read it.
	vecs map[bitset.Set][]propVec

	// Scratch for the per-join hot path. accumulate_plans runs once per
	// enumerated join — the paper's Table 3 inner loop — so everything it
	// needs transiently is buffered on the counter and reused join over
	// join and request over request, mirroring the real generator's idioms.
	ocBuf, icBuf []query.ColID
	// colsOuter and colsInner are the table sets ocBuf and icBuf hold the
	// join columns of (no join has an empty side, so zero means none yet).
	colsOuter, colsInner bitset.Set
	// maxCols is the most join columns one join of this block had: what the
	// run used of ocBuf and icBuf (doubled, of jcBuf), whatever their capacity.
	maxCols  int
	jcBuf    []query.ColID
	base     props.BaseOrders
	emitted  props.OrderList
	plistBuf props.PartitionList
	// joinRep marks, within one mergeOrderCount call, the class
	// representatives of the join's outer columns; all false between calls.
	joinRep []bool
}

// reset configures the counter for one block, keeping the scratch buffers of
// the block before.
func (c *counter) reset(blk *query.Block, sc *props.Scope, mem *memo.Memo, nodes int, opts Options) {
	pipe := 1
	if sc.PipelineInteresting() {
		pipe = 2
	}
	n := len(blk.Columns)
	*c = counter{
		blk: blk, sc: sc, mem: mem,
		parallel: nodes > 1, nodes: nodes,
		policy: opts.OrderPolicy, mode: opts.ListMode, everyJoin: opts.PropagateEveryJoin,
		pipeFactor: pipe,
		expTables:  sc.ExpensiveTables(),
		ocBuf:      c.ocBuf[:0], icBuf: c.icBuf[:0], jcBuf: c.jcBuf[:0],
		base: c.base, emitted: c.emitted, plistBuf: c.plistBuf,
		joinRep: slices.Grow(c.joinRep[:0], n)[:n],
	}
	clear(c.joinRep)
	// Only the compound-list ablation maintains per-entry vectors; the
	// default separate-list mode never touches the map.
	if c.mode == CompoundLists {
		c.vecs = make(map[bitset.Set][]propVec)
	}
}

// initialize populates the interesting-property lists of a fresh MEMO entry
// (Table 3, initialize()). Single-table entries get their orders per the
// generation policy — the pushed-down interesting orders under the eager
// policy, natural index orders under the lazy one — and their physical
// partition (partitions are generated lazily, as in DB2's parallel
// version).
func (c *counter) initialize(e *memo.Entry) {
	if e.Tables.Len() != 1 {
		return
	}
	t := e.Tables.Min()
	if c.policy == props.Eager {
		for _, o := range c.sc.EagerBaseOrders(t, &e.Equiv, &c.base) {
			c.mem.AddOrder(e, o)
		}
	} else {
		for _, o := range c.sc.NaturalBaseOrders(t, &e.Equiv, &c.base) {
			if c.sc.OrderUseful(o, &e.Equiv) {
				c.mem.AddOrder(e, o)
			}
		}
	}
	part := props.Partition{}
	if c.parallel {
		if p, ok := c.sc.NaturalBasePartition(t); ok {
			part = p
			e.Parts.Add(p, &e.Equiv)
		}
	}
	if c.mode == CompoundLists {
		// The base orders are already distinct under e.Equiv, so the entry's
		// list holds every one of them, in order, with columns of its own.
		vs := []propVec{{props.Order{}, part}}
		for _, o := range e.Orders.Orders() {
			vs = append(vs, propVec{o, part})
		}
		c.vecs[e.Tables] = vs
	}
}

// accumulatePlans processes one enumerated (outer, inner) join (Table 3,
// accumulate_plans()): it propagates interesting property values from the
// inputs to the result entry — a property propagates when at least one join
// method can carry it, it has not retired, and it is not equivalent to a
// value already in the list — and accumulates a separate plan count per
// join method according to the method's propagation class.
func (c *counter) accumulatePlans(outer, inner, result *memo.Entry) {
	outerCols, innerCols := c.joinCols(outer, inner)
	candParts := c.candidateParts(outer, inner, result, outerCols, innerCols)

	// --- property propagation (first-join-only unless ablated) ---
	c.propagateWithCols(outer, inner, result, outerCols, candParts)

	// --- plan counting per method ---
	c.countWithCols(outer, inner, result, outerCols, candParts)
}

// joinCols returns the equality join columns between outer and inner, index-
// aligned, in the counter's scratch buffers. The enumerator emits the two
// orientations of a pair back to back and the second one's columns are the
// first one's with the sides exchanged, so the crossing predicates are looked
// up once per unordered pair and the second call swaps the buffers.
func (c *counter) joinCols(outer, inner *memo.Entry) (outerCols, innerCols []query.ColID) {
	if c.colsOuter == inner.Tables && c.colsInner == outer.Tables {
		c.ocBuf, c.icBuf = c.icBuf, c.ocBuf
	} else {
		c.ocBuf, c.icBuf = c.blk.AppendJoinColsFromSides(c.mem.Sides(outer), c.mem.Sides(inner), c.ocBuf[:0], c.icBuf[:0])
		c.maxCols = max(c.maxCols, len(c.ocBuf))
	}
	c.colsOuter, c.colsInner = outer.Tables, inner.Tables
	return c.ocBuf, c.icBuf
}

// propagateWithCols is the property-propagation half of accumulate_plans. It
// writes only the result entry's lists and the compound-vector map, never
// the inputs'.
func (c *counter) propagateWithCols(outer, inner, result *memo.Entry, outerCols []query.ColID, candParts []props.Partition) {
	if result.PropsPropagated && !c.everyJoin {
		return
	}
	result.PropsPropagated = true
	// Orders propagate from both inputs' lists (Table 3: lists ∪ listl)
	// — restricted to outer-enabled inputs, since orders travel on the
	// outer of a nested-loops join (DB2 item 3) — plus the
	// merge-candidate orders MGJN partially propagates. The inputs' orders
	// already own their columns in this MEMO's arena and are shared; a merge
	// candidate is a window on the join-column scratch and is given columns
	// of its own only if the list takes it.
	c.inheritOrders(outer, result)
	if inner.OuterEligible {
		c.inheritOrders(inner, result)
	}
	for i := 0; i <= len(outerCols); i++ {
		if o := mergeOut(outerCols, i); c.sc.OrderUseful(o, &result.Equiv) {
			c.mem.AddOrder(result, o)
		}
	}
	for _, pp := range candParts {
		// Stored input partitions and the scratch repartition alike are
		// copied into the arena: a column or two, not worth telling apart.
		if !pp.Empty() && !result.Parts.Contains(pp, &result.Equiv) {
			pp.Cols = c.mem.KeepCols(pp.Cols)
			result.Parts.Add(pp, &result.Equiv)
		}
	}
	if c.mode == CompoundLists {
		c.propagateVecs(outer, result, candParts, outerCols)
		if inner.OuterEligible {
			c.propagateVecs(inner, result, candParts, outerCols)
		}
	}
}

// inheritOrders adds in's orders still useful at result, sharing their columns.
func (c *counter) inheritOrders(in, result *memo.Entry) {
	for _, o := range in.Orders.Orders() {
		if c.sc.OrderUseful(o, &result.Equiv) {
			result.Orders.Add(o, &result.Equiv)
		}
	}
}

// mergeOut returns the i-th outer-side merge-candidate order of a join (the
// outs of plangen.MergeCandidates; estimation never needs the inner side),
// 0 <= i <= len(outerCols): one per join column, then the composite on all of
// them, which for a single-column join is the empty, never useful, order.
// They are windows on outerCols: scratch, valid until the next column lookup.
func mergeOut(outerCols []query.ColID, i int) props.Order {
	switch {
	case i < len(outerCols):
		return props.Order{Cols: outerCols[i : i+1]}
	case len(outerCols) > 1:
		return props.Order{Cols: outerCols}
	}
	return props.Order{}
}

// mergeOrderCount returns |listp ∪ listc|: the deduplicated merge-candidate
// orders — one per join column plus, for a multi-column join, the composite
// on all of them — plus the coverage list of outer orders strictly subsuming
// one. Class representatives are all it needs to look at: the distinct
// single-column candidates are the distinct representatives of the
// join columns; an outer order can only duplicate a candidate of its own
// length, i.e. the composite; and what the composite strictly prefixes its
// first column does too, so an outer order is covered exactly when it has
// two or more columns and leads with a join column's representative.
func (c *counter) mergeOrderCount(outer, result *memo.Entry, outerCols []query.ColID) int {
	eq := &result.Equiv
	n := 0
	for _, col := range outerCols {
		if r := eq.Rep(col); !c.joinRep[r] {
			c.joinRep[r] = true
			n++
		}
	}
	// emitted holds the orders a covered outer order could duplicate: the
	// composite and the covered orders before it. outerCols outlives it.
	emitted := &c.emitted
	emitted.Reset()
	if len(outerCols) > 1 {
		emitted.Add(props.Order{Cols: outerCols}, eq)
	}
	for _, o := range outer.Orders.Orders() {
		if o.Len() > 1 && c.joinRep[eq.Rep(o.Cols[0])] {
			emitted.Add(o, eq)
		}
	}
	for _, col := range outerCols {
		c.joinRep[eq.Rep(col)] = false
	}
	return n + emitted.Len()
}

// serialParts is the single don't-care execution partition of serial mode,
// shared to keep the per-join hot path allocation free.
var serialParts = []props.Partition{{}}

// candidateParts mirrors the real generator's execution-partition rule from
// the interesting-partition lists: input partitions covered by the join
// columns, or a repartition on the join columns when none qualifies (the
// heuristic of Section 4). Serial estimation uses the single don't-care
// partition. The result is scratch, the repartition a window on outerCols.
func (c *counter) candidateParts(outer, inner, result *memo.Entry, outerCols, innerCols []query.ColID) []props.Partition {
	if !c.parallel {
		return serialParts
	}
	joinCols := append(append(c.jcBuf[:0], outerCols...), innerCols...)
	c.jcBuf = joinCols
	list := &c.plistBuf
	list.Reset()
	for _, e := range []*memo.Entry{outer, inner} {
		for _, p := range e.Parts.Partitions() {
			if p.CoversJoinCols(joinCols, &result.Equiv) {
				list.Add(p, &result.Equiv)
			}
		}
	}
	if list.Len() == 0 {
		if len(outerCols) == 0 {
			return serialParts
		}
		list.Add(props.Partition{Cols: outerCols, Nodes: c.nodes}, &result.Equiv)
	}
	return list.Partitions()
}

// propagateVecs maintains compound (order, partition) vectors: a vector
// retires only when every component has retired (Section 3.4).
func (c *counter) propagateVecs(outer, result *memo.Entry, candParts []props.Partition, outerCols []query.ColID) {
	have := c.vecs[result.Tables]
	add := func(v propVec) {
		for _, h := range have {
			if h.o.EqualUnder(v.o, &result.Equiv) && h.p.EqualUnder(v.p, &result.Equiv) {
				return
			}
		}
		// The components may be scratch; a kept vector owns its columns.
		v.o.Cols, v.p.Cols = c.mem.KeepCols(v.o.Cols), c.mem.KeepCols(v.p.Cols)
		have = append(have, v)
	}
	for _, pp := range candParts {
		add(propVec{props.Order{}, pp})
		for _, v := range c.vecs[outer.Tables] {
			if v.o.Empty() {
				continue // the (DC, pp) vector is already present
			}
			oUseful := c.sc.OrderUseful(v.o, &result.Equiv)
			pAlive := c.parallel && !pp.Empty()
			if !oUseful && !pAlive {
				continue // every component retired: the vector retires
			}
			// Compound retirement rule: the vector survives as long as any
			// component is alive, so a retired order rides along on an
			// interesting partition.
			add(propVec{v.o, pp})
		}
		for i := 0; i <= len(outerCols); i++ {
			if o := mergeOut(outerCols, i); c.sc.OrderUseful(o, &result.Equiv) {
				add(propVec{o, pp})
			}
		}
	}
	c.vecs[result.Tables] = have
}

// countCompound counts plans from compound vectors, re-simulating the real
// generator's per-partition behaviour.
func (c *counter) countCompound(outer, result *memo.Entry, candParts []props.Partition, outerCols []query.ColID) {
	outerVecs := c.vecs[outer.Tables]
	for _, pp := range candParts {
		colocated := 0
		var distinctOrders props.OrderList
		for _, v := range outerVecs {
			if c.parallel && !v.p.EqualUnder(pp, &result.Equiv) {
				if !v.o.Empty() {
					distinctOrders.Add(v.o, &result.Equiv)
				}
				continue
			}
			colocated++
		}
		n := colocated
		if c.parallel && n == 0 {
			n = 1 + distinctOrders.Len() // repartition + re-sorts
		}
		c.counts.ByMethod[props.NLJN] += n
		if len(outerCols) > 0 {
			c.counts.ByMethod[props.MGJN] += c.mergeOrderCount(outer, result, outerCols)
			c.counts.ByMethod[props.HSJN]++
		}
	}
}

// counterColIDBytes is the scratch element size of the counter's column
// buffers. A var: unsafe.Sizeof over *new(T) is not a constant expression.
var counterColIDBytes = int64(unsafe.Sizeof(*new(query.ColID)))

// scratchBytes reports what the block used of the counter's per-join scratch
// — the working memory the run's peak sees at the block's end and then
// frees: the lengths the buffers reached, not their capacities, which are
// pooled and remember the largest request ever served. The property lists
// are durable MEMO content and counted there.
func (c *counter) scratchBytes() int64 {
	cols := 2 * c.maxCols // ocBuf and icBuf
	if c.parallel {
		cols += 2 * c.maxCols // jcBuf holds both sides
	}
	return int64(cols)*counterColIDBytes + int64(len(c.joinRep))
}

// propertyBytes reports the memory footprint of the maintained property
// lists, at the paper's ~4 bytes per property value.
func (c *counter) propertyBytes(mem *memo.Memo) int {
	if c.mode == CompoundLists {
		const bytesPerVec = 8
		n := 0
		for _, vs := range c.vecs {
			n += len(vs) * bytesPerVec
		}
		return n
	}
	return mem.PropertyListBytes()
}
