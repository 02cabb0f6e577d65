package props

import (
	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
)

// GenerationPolicy selects how interesting properties come into existence
// (Section 3.2 of the paper). Under Eager the optimizer forces properties to
// exist with enforcers (SORT below joins), so the interesting properties of
// a base table are the ones pushed down from the query. Under Lazy only
// naturally occurring properties (index orders, physical partitionings) are
// kept.
type GenerationPolicy int

// Generation policies. DB2 uses Eager for orders and Lazy for partitions;
// those are the defaults of the reproduced optimizer.
const (
	Eager GenerationPolicy = iota
	Lazy
)

// String names the policy.
func (p GenerationPolicy) String() string {
	if p == Eager {
		return "eager"
	}
	return "lazy"
}

// Interest classifies why an order is interesting at a table set. The
// coverage computation for partial joins needs the distinction: order-by
// coverage uses prefix subsumption while group-by coverage uses set
// subsumption (DB2 experience item 2 in Section 4).
type Interest struct {
	FutureJoin bool
	OrderBy    bool
	GroupBy    bool
}

// Any reports whether the property is interesting for any reason. A
// property with no remaining interest has retired.
func (i Interest) Any() bool { return i.FutureJoin || i.OrderBy || i.GroupBy }

// Scope answers interest and retirement questions for one query block and
// generates the initial interesting-property lists of base tables. It is
// immutable after construction and shared, without a lock, by the real
// optimizer, the estimator, and all workers of the parallel DP round, so
// every party sees the same property universe. Only the interner it carries
// mutates, under its own lock.
type Scope struct {
	blk *query.Block
	// eqPreds holds indexes of equality join predicates.
	eqPreds []int
	// intern canonicalizes the property values this block's plans carry.
	// Embedded by value (its maps grow lazily), so scopes that never intern
	// — the whole estimation path — pay nothing for it.
	intern Interner
}

// NewScope builds the interest analyzer for a finalized block.
func NewScope(blk *query.Block) *Scope {
	sc := &Scope{blk: blk}
	for i, p := range blk.JoinPreds {
		if p.Op == query.Eq {
			sc.eqPreds = append(sc.eqPreds, i)
		}
	}
	return sc
}

// Block returns the underlying query block.
func (sc *Scope) Block() *query.Block { return sc.blk }

// Intern returns the scope's property interner.
func (sc *Scope) Intern() *Interner { return &sc.intern }

// OrderInterest classifies the interest of order o at the table set eq was
// built for. The zero Interest means o has retired there.
func (sc *Scope) OrderInterest(o Order, eq *query.Equiv) Interest {
	var in Interest
	if o.Empty() {
		return in
	}
	// Future join: the leading column feeds a join predicate out of the set.
	in.FutureJoin = eq.FutureJoin(o.Cols[0])
	// Order by: prefix-comparable with the ORDER BY list — either o
	// satisfies the full requirement or can be extended to it by later
	// operators.
	if ob := sc.blk.OrderBy; len(ob) > 0 {
		n := len(o.Cols)
		if len(ob) < n {
			n = len(ob)
		}
		match := true
		for i := 0; i < n; i++ {
			if !eq.Same(o.Cols[i], ob[i]) {
				match = false
				break
			}
		}
		if match {
			in.OrderBy = true
		}
	}
	// Group by: every ordering column is a grouping column (set semantics —
	// any permutation of the grouping columns supports sort-based grouping).
	if gb := sc.blk.GroupBy; len(gb) > 0 {
		if o.SetSubsetOfUnder(Order{Cols: gb}, eq) {
			in.GroupBy = true
		}
	}
	return in
}

// OrderUseful reports whether o is still interesting (not retired) at the
// table set eq was built for.
func (sc *Scope) OrderUseful(o Order, eq *query.Equiv) bool {
	return sc.OrderInterest(o, eq).Any()
}

// PartitionUseful reports whether partition p is still interesting at the
// table set eq was built for: its keys all feed future equality joins, or
// they are a subset of the grouping columns (local aggregation). Hash
// partitions do not help ORDER BY (a range partition would; we model hash
// only, as the paper's Table 1 notes the distinction).
func (sc *Scope) PartitionUseful(p Partition, eq *query.Equiv) bool {
	if p.Empty() {
		return false
	}
	feeds := true
	for _, c := range p.Cols {
		feeds = feeds && eq.FutureJoin(c)
	}
	if feeds {
		return true
	}
	if gb := sc.blk.GroupBy; len(gb) > 0 {
		if (Order{Cols: p.Cols}).SetSubsetOfUnder(Order{Cols: gb}, eq) {
			return true
		}
	}
	return false
}

// ExpensiveTables returns the set of tables carrying at least one
// user-defined expensive predicate — the tables whose plans fork into
// apply-at-scan and defer-past-joins variants (Table 1, row 5).
func (sc *Scope) ExpensiveTables() bitset.Set {
	var out bitset.Set
	for _, lp := range sc.blk.LocalPreds {
		if lp.Expensive {
			out = out.Add(sc.blk.TableOf(lp.Col))
		}
	}
	return out
}

// ExpensiveSel returns the combined selectivity of table t's expensive
// predicates (1 when it has none), and their count.
func (sc *Scope) ExpensiveSel(t int) (sel float64, n int) {
	sel = 1
	for _, lp := range sc.blk.LocalPreds {
		if lp.Expensive && sc.blk.TableOf(lp.Col) == t {
			sel *= lp.Selectivity
			n++
		}
	}
	return sel, n
}

// PipelineInteresting reports whether pipelineability is an interesting
// property for this query: the query asks for the first N rows and no
// blocking clause (ORDER BY / GROUP BY) forces full materialization at the
// top anyway (Table 1 of the paper).
func (sc *Scope) PipelineInteresting() bool {
	return sc.blk.FirstN > 0 && len(sc.blk.OrderBy) == 0 && len(sc.blk.GroupBy) == 0
}

// PipelinePropagation returns how a join method propagates pipelineability:
// a nested-loops join streams with its outer (full); a sort-merge join
// pipelines only when both inputs are naturally ordered, which the eager
// sort policy makes rare (none here); a hash join's build side always
// materializes (none) — the "no SORTs, builds for hash joins or TEMPs" rule
// of Table 1.
func PipelinePropagation(m JoinMethod) Propagation {
	if m == NLJN {
		return Full
	}
	return None
}

// EagerBaseOrders computes the interesting orders pushed down to base table
// t under the eager generation policy: one single-column order per equality
// join column of t, one composite order per multi-predicate join edge, the
// maximal ORDER BY prefix local to t, and the grouping columns local to t.
// This mirrors the push-down of interesting orders to base tables described
// in Simmen et al. and reused by the paper (DB2 experience item 1).
func (sc *Scope) EagerBaseOrders(t int, eq *query.Equiv) []Order {
	blk := sc.blk
	var list OrderList

	// Single-column orders on each equality join column of t.
	for _, i := range sc.eqPreds {
		p := blk.JoinPreds[i]
		if blk.TableOf(p.Left) == t {
			list.Add(OrderOn(p.Left), eq)
		}
		if blk.TableOf(p.Right) == t {
			list.Add(OrderOn(p.Right), eq)
		}
	}

	// Composite orders: all of t's columns joining to one particular other
	// table, in predicate order — the sort a multi-column merge join needs.
	perPeer := map[int][]query.ColID{}
	var peers []int
	for _, i := range sc.eqPreds {
		p := blk.JoinPreds[i]
		var mine query.ColID
		var peer int
		switch {
		case blk.TableOf(p.Left) == t:
			mine, peer = p.Left, blk.TableOf(p.Right)
		case blk.TableOf(p.Right) == t:
			mine, peer = p.Right, blk.TableOf(p.Left)
		default:
			continue
		}
		if _, seen := perPeer[peer]; !seen {
			peers = append(peers, peer)
		}
		perPeer[peer] = append(perPeer[peer], mine)
	}
	for _, peer := range peers {
		if cols := perPeer[peer]; len(cols) >= 2 {
			list.Add(OrderOn(cols...), eq)
		}
	}

	// Maximal ORDER BY prefix whose columns all belong to t.
	var obPrefix []query.ColID
	for _, c := range blk.OrderBy {
		if blk.TableOf(c) != t {
			break
		}
		obPrefix = append(obPrefix, c)
	}
	if len(obPrefix) > 0 {
		list.Add(OrderOn(obPrefix...), eq)
	}

	// Grouping columns local to t, in list order.
	var gbCols []query.ColID
	for _, c := range blk.GroupBy {
		if blk.TableOf(c) == t {
			gbCols = append(gbCols, c)
		}
	}
	if len(gbCols) > 0 {
		list.Add(OrderOn(gbCols...), eq)
	}

	return list.Orders()
}

// NaturalBaseOrders computes the orders base table t provides naturally —
// one per index, in index column sequence. Under the lazy policy these are
// the only order properties single-table plans carry.
func (sc *Scope) NaturalBaseOrders(t int, eq *query.Equiv) []Order {
	ref := sc.blk.Tables[t]
	if ref.Table == nil {
		return nil // derived tables provide no natural order
	}
	var list OrderList
	for _, ix := range ref.Table.Indexes {
		cols := make([]query.ColID, 0, len(ix.Columns))
		for _, name := range ix.Columns {
			cols = append(cols, sc.colOf(ref, name))
		}
		list.Add(OrderOn(cols...), eq)
	}
	return list.Orders()
}

// NaturalBasePartition returns the physical hash partitioning of base table
// t, if any. Partitions are generated lazily in the reproduced system, as in
// DB2's parallel version.
func (sc *Scope) NaturalBasePartition(t int) (Partition, bool) {
	ref := sc.blk.Tables[t]
	if ref.Table == nil || ref.Table.Partitioning == nil {
		return Partition{}, false
	}
	pt := ref.Table.Partitioning
	cols := make([]query.ColID, 0, len(pt.Columns))
	for _, name := range pt.Columns {
		cols = append(cols, sc.colOf(ref, name))
	}
	return PartitionOn(pt.Nodes, cols...), true
}

// colOf maps a catalog column name of ref to its block-level ColID.
func (sc *Scope) colOf(ref *query.TableRef, name string) query.ColID {
	var c *catalog.Column
	var err error
	c, err = ref.Table.Column(name)
	if err != nil {
		panic(err) // catalog indexes/partitions were validated at build time
	}
	return ref.FirstCol + query.ColID(c.Ordinal)
}
