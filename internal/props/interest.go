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
// immutable after construction and read, without a lock, by the plan
// generator and the estimator alike, so both see the same property
// universe. Only the interner it carries mutates, under its own lock.
type Scope struct {
	blk *query.Block
	// intern canonicalizes the property values plan generation stores in
	// plans, which outlive their MEMO. Only plangen interns: the estimator's
	// stored properties live in its pooled MEMO's arena, so a Scope on the
	// estimate path leaves the interner's maps nil and never takes its lock.
	intern Interner
}

// NewScope builds the interest analyzer for a finalized block.
func NewScope(blk *query.Block) *Scope {
	return &Scope{blk: blk}
}

// Reset points a scope that never interned at another finalized block — the
// estimate workspace pools one across requests.
func (sc *Scope) Reset(blk *query.Block) { sc.blk = blk }

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

// BaseOrders is the caller-owned storage EagerBaseOrders and
// NaturalBaseOrders work in: the list they return and the columns its orders
// point into. The next call overwrites both, so a caller copies what it keeps
// (the counter into its MEMO's arena, plan generation through the interner).
type BaseOrders struct {
	list        OrderList
	cols, peers []query.ColID
}

// EagerBaseOrders computes the interesting orders pushed down to base table
// t under the eager generation policy: one single-column order per equality
// join column of t, one composite order per multi-predicate join edge, the
// maximal ORDER BY prefix local to t, and the grouping columns local to t.
// This mirrors the push-down of interesting orders to base tables described
// in Simmen et al. and reused by the paper (DB2 experience item 1). The
// result is valid until s is used again.
func (sc *Scope) EagerBaseOrders(t int, eq *query.Equiv, s *BaseOrders) []Order {
	blk := sc.blk
	list := &s.list
	list.Reset()

	// The equality predicates linking t to the rest of the block, in
	// predicate order — t's column and the peer's, index-aligned — from the
	// block's per-table predicate bitsets.
	single := bitset.Single(t)
	s.cols, s.peers = blk.AppendJoinCols(single, blk.AllTables().Diff(single), s.cols[:0], s.peers[:0])
	k := len(s.cols)

	// Single-column orders on each equality join column of t.
	for i := 0; i < k; i++ {
		list.Add(Order{Cols: s.cols[i : i+1]}, eq)
	}

	// Composite orders: all of t's columns joining to one particular other
	// table, in predicate order — the sort a multi-column merge join needs —
	// peers in the order their first predicate appears. A gathered predicate
	// has its peer column struck out.
	for i := 0; i < k; i++ {
		if s.peers[i] < 0 {
			continue
		}
		peer, from := blk.TableOf(s.peers[i]), len(s.cols)
		for j := i; j < k; j++ {
			if s.peers[j] >= 0 && blk.TableOf(s.peers[j]) == peer {
				s.cols, s.peers[j] = append(s.cols, s.cols[j]), -1
			}
		}
		if len(s.cols)-from < 2 {
			s.cols = s.cols[:from]
			continue
		}
		list.Add(Order{Cols: s.cols[from:]}, eq)
	}

	// Maximal ORDER BY prefix whose columns all belong to t.
	n := 0
	for n < len(blk.OrderBy) && blk.TableOf(blk.OrderBy[n]) == t {
		n++
	}
	if n > 0 {
		list.Add(Order{Cols: blk.OrderBy[:n]}, eq)
	}

	// Grouping columns local to t, in list order.
	from := len(s.cols)
	for _, c := range blk.GroupBy {
		if blk.TableOf(c) == t {
			s.cols = append(s.cols, c)
		}
	}
	if len(s.cols) > from {
		list.Add(Order{Cols: s.cols[from:]}, eq)
	}

	return list.Orders()
}

// NaturalBaseOrders computes the orders base table t provides naturally —
// one per index, in index column sequence. Under the lazy policy these are
// the only order properties single-table plans carry. The result is valid
// until s is used again.
func (sc *Scope) NaturalBaseOrders(t int, eq *query.Equiv, s *BaseOrders) []Order {
	ref := sc.blk.Tables[t]
	if ref.Table == nil {
		return nil // derived tables provide no natural order
	}
	list := &s.list
	list.Reset()
	s.cols = s.cols[:0]
	for _, ix := range ref.Table.Indexes {
		from := len(s.cols)
		for _, name := range ix.Columns {
			s.cols = append(s.cols, sc.colOf(ref, name))
		}
		list.Add(Order{Cols: s.cols[from:]}, eq)
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
