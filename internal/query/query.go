// Package query models a parsed and normalized query block: table
// references, local and join predicates, outer-join constraints, GROUP BY /
// ORDER BY column lists, and nested blocks for views and subqueries.
//
// The model captures exactly the features the paper identifies as drivers of
// optimizer compilation time: the join graph (including cycles introduced by
// implied predicates computed through transitive closure), the predicates
// that give rise to interesting order properties, grouping/ordering columns,
// and the outer-join / correlation restrictions that make some table sets
// ineligible to serve as the outer of a join.
package query

import (
	"fmt"
	"math/bits"
	"slices"

	"cote/internal/bitset"
	"cote/internal/catalog"
)

// ColID identifies a column instance within one query block. Two references
// to the same catalog column through different table aliases get different
// ColIDs, because they participate independently in the join graph.
type ColID int32

// NoCol is the invalid ColID.
const NoCol ColID = -1

// PredOp is the comparison operator of a predicate.
type PredOp int

// Predicate operators. Only Eq join predicates can be evaluated by
// sort-merge and hash joins and only they produce interesting orders and
// feed the equivalence closure; the others still connect the join graph and
// are evaluated by nested-loops joins.
const (
	Eq PredOp = iota
	Lt
	Le
	Gt
	Ge
	Ne
)

// String returns the SQL spelling of the operator.
func (op PredOp) String() string {
	switch op {
	case Eq:
		return "="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Ne:
		return "<>"
	}
	return fmt.Sprintf("PredOp(%d)", int(op))
}

// TableRef is one entry in the FROM list: a base table or a derived table
// (view or subquery) under an alias.
type TableRef struct {
	// Index is the position of this reference in Block.Tables and its bit
	// position in table sets.
	Index int
	// Table is the base table, or nil for a derived table.
	Table *catalog.Table
	// Derived is the child block producing this table, or nil for a base
	// table.
	Derived *Block
	// Alias is the name the reference goes by in this block.
	Alias string
	// FirstCol is the ColID of the reference's first column; columns are
	// contiguous.
	FirstCol ColID
	// NumCols is the number of columns exposed by the reference.
	NumCols int
	// Correlated marks a derived table whose block references columns of
	// this block (a correlated subquery). Correlated derived tables cannot
	// serve as the outer of a join.
	Correlated bool
}

// IsDerived reports whether the reference is a view or subquery.
func (t *TableRef) IsDerived() bool { return t.Derived != nil }

// ColumnRef is one column instance of the block.
type ColumnRef struct {
	ID  ColID
	Ref *TableRef
	// Col carries the name and NDV. For derived tables it is a synthetic
	// column not owned by any catalog table.
	Col *catalog.Column
}

// String renders the column as "alias.name".
func (c *ColumnRef) String() string { return c.Ref.Alias + "." + c.Col.Name }

// JoinPred is a predicate relating columns of two different table
// references.
type JoinPred struct {
	Left, Right ColID
	Op          PredOp
	// Implied marks predicates derived through the transitive closure of
	// equality predicates rather than written by the user. Implied
	// predicates create cycles in otherwise acyclic join graphs — the paper
	// cites them as a reason join counting is hard in real systems.
	Implied bool
}

// LocalPred is a single-table predicate (column op constant).
type LocalPred struct {
	Col ColID
	Op  PredOp
	// Selectivity is the fraction of rows satisfying the predicate. For Eq
	// it defaults to 1/NDV at Finalize time if left zero.
	Selectivity float64
	// Implied marks predicates propagated across equality classes (a = b
	// and a = 5 implies b = 5).
	Implied bool
	// Expensive marks a user-defined expensive predicate, which (per Table 1
	// of the paper) is itself a physical property: plans differ by which
	// subset of expensive predicates they have already applied.
	Expensive bool
}

// OuterJoin records a left outer join: all tables of Preserving are
// preserved, the single null-producing table is NullProducing, and PredReq
// is the set of preserving-side tables referenced by the ON predicate. The
// reproduced optimizer supports free reordering only — the null-producing
// table may join only with sets that already contain PredReq, and a set
// containing a not-yet-applied null-producing table cannot be an outer.
type OuterJoin struct {
	NullProducing int
	PredReq       bitset.Set
}

// Block is one query block (a SELECT). Nested blocks appear as derived
// TableRefs; they are optimized independently, bottom-up, exactly as the
// paper's multi-block extension describes. A block is read-only after
// Finalize: what a run learns about it, such as a derived table's output
// cardinality, stays in the run (cost.Estimator), so any number of runs may
// share one block.
type Block struct {
	Name    string
	Catalog *catalog.Catalog

	Tables  []*TableRef
	Columns []*ColumnRef

	LocalPreds []LocalPred
	JoinPreds  []JoinPred
	OuterJoins []OuterJoin

	GroupBy []ColID
	OrderBy []ColID
	Select  []ColID
	// NumAggs is the number of aggregate functions in the select list; it
	// contributes to the (cheap, easily estimated) non-join plan count.
	NumAggs int
	// FirstN, when positive, asks for only the first N rows (FETCH FIRST N
	// ROWS ONLY). It makes pipelineability an interesting physical property
	// (Table 1 of the paper): a plan that streams its first rows without
	// SORTs, hash-join builds or TEMPs can stop early.
	FirstN int

	finalized bool
	// adjacency[i] = set of table indexes joined to table i by some predicate
	adjacency []bitset.Set
	// colTable[c] is the index of the table owning column c.
	colTable []int32
	// inc is the per-table predicate incidence: word w of table t's sets is
	// inc[t*predWords+w], bit k of it standing for JoinPreds[w*64+k]; the
	// first set is the predicates whose Left column belongs to t, the second
	// those whose Right column does. With table sets one machine word, every
	// "which predicates cross this cut" question of the DP inner loop is an
	// OR per member table and an AND, not a walk over the block's predicates.
	inc       [][2]uint64
	predWords int
	// eqMask is the set of equality predicates, the only ones that produce
	// join columns, interesting orders and equivalences.
	eqMask []uint64
}

// NumTables returns the number of table references in the block.
func (b *Block) NumTables() int { return len(b.Tables) }

// AllTables returns the set of all table indexes in the block.
func (b *Block) AllTables() bitset.Set { return bitset.Full(len(b.Tables)) }

// Column returns the column reference for id. It panics on out-of-range
// ids, which indicate corrupted construction rather than bad user input.
func (b *Block) Column(id ColID) *ColumnRef {
	if id < 0 || int(id) >= len(b.Columns) {
		panic(fmt.Sprintf("query: ColID %d out of range [0,%d)", id, len(b.Columns)))
	}
	return b.Columns[id]
}

// TableOf returns the table index owning column id. Finalize must have
// started: it reads the flat per-column index built there.
func (b *Block) TableOf(id ColID) int { return int(b.colTable[id]) }

// ColSet maps a column list to the set of owning tables.
func (b *Block) ColSet(cols []ColID) bitset.Set {
	var s bitset.Set
	for _, c := range cols {
		s = s.Add(b.TableOf(c))
	}
	return s
}

// Blocks returns the block and all nested blocks, children first (the order
// in which the optimizer must process them).
func (b *Block) Blocks() []*Block {
	var out []*Block
	var walk func(blk *Block)
	walk = func(blk *Block) {
		for _, t := range blk.Tables {
			if t.Derived != nil {
				walk(t.Derived)
			}
		}
		out = append(out, blk)
	}
	walk(b)
	return out
}

// Finalize validates the block, defaults predicate selectivities, computes
// the transitive closure of equality predicates (adding implied join and
// local predicates), and builds the join-graph adjacency caches. It must be
// called exactly once, after construction and before optimization; nested
// blocks are finalized recursively. Its indexes are carved from a fresh
// arena; a builder's Build finalizes into the builder's arena.
func (b *Block) Finalize() error { return b.finalize(new(Arena)) }

func (b *Block) finalize(a *Arena) error {
	if b.finalized {
		return fmt.Errorf("query %q: already finalized", b.Name)
	}
	if len(b.Tables) == 0 {
		return fmt.Errorf("query %q: no tables", b.Name)
	}
	if len(b.Tables) > bitset.MaxElems {
		return fmt.Errorf("query %q: %d tables exceeds the per-block limit of %d",
			b.Name, len(b.Tables), bitset.MaxElems)
	}
	for i, t := range b.Tables {
		if t.Index != i {
			return fmt.Errorf("query %q: table %q has index %d at position %d", b.Name, t.Alias, t.Index, i)
		}
		if t.Derived != nil && !t.Derived.finalized {
			if err := t.Derived.finalize(a); err != nil {
				return err
			}
		}
	}
	b.colTable = a.int32s.take(len(b.Columns))
	for i, c := range b.Columns {
		b.colTable[i] = int32(c.Ref.Index)
	}
	for i, p := range b.JoinPreds {
		lt, rt := b.TableOf(p.Left), b.TableOf(p.Right)
		if lt == rt {
			return fmt.Errorf("query %q: join predicate %d relates columns of the same table %q",
				b.Name, i, b.Tables[lt].Alias)
		}
	}
	for _, oj := range b.OuterJoins {
		if oj.NullProducing < 0 || oj.NullProducing >= len(b.Tables) {
			return fmt.Errorf("query %q: outer join null-producing table %d out of range", b.Name, oj.NullProducing)
		}
		if oj.PredReq.Contains(oj.NullProducing) {
			return fmt.Errorf("query %q: outer join %d requires its own null-producing table", b.Name, oj.NullProducing)
		}
	}

	b.defaultSelectivities()
	b.transitiveClosure(a)
	b.buildAdjacency(a)
	b.finalized = true
	return nil
}

// defaultSelectivities fills zero selectivities with 1/NDV for equality and
// 1/3 for range predicates (the System R defaults).
func (b *Block) defaultSelectivities() {
	for i := range b.LocalPreds {
		p := &b.LocalPreds[i]
		if p.Selectivity > 0 {
			continue
		}
		switch p.Op {
		case Eq:
			ndv := b.Column(p.Col).Col.NDV
			if ndv < 1 {
				ndv = 1
			}
			p.Selectivity = 1 / ndv
		case Ne:
			p.Selectivity = 0.9
		default:
			p.Selectivity = 1.0 / 3
		}
		if p.Selectivity > 1 {
			p.Selectivity = 1
		}
	}
}

// transitiveClosure computes equality equivalence classes over join
// predicates and adds (a) implied equality join predicates between every
// pair of class members on different tables, and (b) implied local equality
// predicates for classes containing a constant equality predicate. This is
// the behaviour of commercial optimizers that the paper points to as a
// source of cycles in real join graphs.
//
// The order implied predicates are appended in is observable — it can shift
// plan counts by a join or two through the property lists — and the
// fingerprint cache's determinism rests on it, so it is pinned: classes in
// ascending order of their union-find root, within a class the member pairs
// (i, j) in ascending ColID order, then the members lacking a constant in
// ascending ColID order.
func (b *Block) transitiveClosure(a *Arena) {
	nEq := 0
	for i := range b.JoinPreds {
		if b.JoinPreds[i].Op == Eq {
			nEq++
		}
	}
	if nEq == 0 {
		return
	}
	uf := newUnionFind(a.int32s.take(len(b.Columns)))
	// Only endpoints of equality predicates sit in a class of two or more, so
	// only they are gathered: edges holds the predicates as written, keyed
	// (smaller, larger) column and sorted, for the "already joined" test;
	// members holds their endpoints keyed (class root, column), sorted and
	// deduplicated, which is the visit order above.
	key := func(hi, lo ColID) uint64 { return uint64(hi)<<32 | uint64(lo) }
	scratch := a.words.take(3 * nEq)
	edges, members := scratch[:0:nEq], scratch[nEq:nEq]
	for _, p := range b.JoinPreds {
		if p.Op == Eq {
			uf.union(int(p.Left), int(p.Right))
			edges = append(edges, key(min(p.Left, p.Right), max(p.Left, p.Right)))
		}
	}
	for _, p := range b.JoinPreds {
		if p.Op == Eq {
			root := ColID(uf.find(int(p.Left)))
			members = append(members, key(root, p.Left), key(root, p.Right))
		}
	}
	slices.Sort(edges)
	slices.Sort(members)
	members = slices.Compact(members)

	written := b.LocalPreds // implied predicates land behind these
	for len(members) > 0 {
		n := 1
		for n < len(members) && members[n]>>32 == members[0]>>32 {
			n++
		}
		class := members[:n]
		members = members[n:]
		// Implied join predicates between all cross-table pairs.
		for i, mi := range class {
			for _, mj := range class[i+1:] {
				l, r := ColID(uint32(mi)), ColID(uint32(mj))
				if b.TableOf(l) == b.TableOf(r) {
					continue
				}
				if _, have := slices.BinarySearch(edges, key(l, r)); have {
					continue
				}
				b.JoinPreds = append(a.joins.grow(b.JoinPreds, 1), JoinPred{Left: l, Right: r, Op: Eq, Implied: true})
			}
		}
		// Implied local equality predicates: the first a = const written on
		// a member propagates to every member that lacks one.
		root := int(class[0] >> 32)
		src := slices.IndexFunc(written, func(lp LocalPred) bool {
			return lp.Op == Eq && uf.find(int(lp.Col)) == root
		})
		if src < 0 {
			continue
		}
		for _, m := range class {
			col := ColID(uint32(m))
			if !slices.ContainsFunc(written, func(lp LocalPred) bool { return lp.Op == Eq && lp.Col == col }) {
				b.LocalPreds = append(b.LocalPreds, LocalPred{
					Col: col, Op: Eq, Selectivity: written[src].Selectivity, Implied: true,
				})
			}
		}
	}
}

func (b *Block) buildAdjacency(a *Arena) {
	b.adjacency = a.sets.take(len(b.Tables))
	b.predWords = (len(b.JoinPreds) + 63) / 64
	b.inc = a.incs.take(len(b.Tables) * b.predWords)
	b.eqMask = a.words.take(b.predWords)
	for i, p := range b.JoinPreds {
		lt, rt := b.TableOf(p.Left), b.TableOf(p.Right)
		b.adjacency[lt] = b.adjacency[lt].Add(rt)
		b.adjacency[rt] = b.adjacency[rt].Add(lt)
		w, bit := i/64, uint64(1)<<(i%64)
		b.inc[lt*b.predWords+w][0] |= bit
		b.inc[rt*b.predWords+w][1] |= bit
		if p.Op == Eq {
			b.eqMask[w] |= bit
		}
	}
}

// Sides is the predicate sides of a table set, one pair per predicate
// word: bit k of Sides[w][0] is set when the Left column of
// JoinPreds[w*64+k] belongs to a table of the set, bit k of Sides[w][1] when
// its Right column does. A predicate in both halves lies within the set; one
// in exactly one crosses its boundary, and the half it is in names the
// column on the inside. The sides of a union are the OR of its parts' sides,
// which is how a MEMO entry composes its own from its two inputs instead of
// walking its tables.
type Sides [][2]uint64

// PredWords returns the number of predicate words: the length of every
// Sides of the block.
func (b *Block) PredWords() int { return b.predWords }

// EqWord returns word w of the block's equality predicates: bit k stands for
// JoinPreds[w*64+k].
func (b *Block) EqWord(w int) uint64 { return b.eqMask[w] }

// TableSides returns the predicate sides of table t alone, a read-only
// window on the block's incidence.
func (b *Block) TableSides(t int) Sides {
	lo, hi := t*b.predWords, (t+1)*b.predWords
	return b.inc[lo:hi:hi]
}

// predSides returns word w of the sides of s, gathered from its tables: the
// per-table walk behind the set-valued questions of callers that hold no
// MEMO entry.
func (b *Block) predSides(s bitset.Set, w int) (l, r uint64) {
	for rest := uint64(s); rest != 0; rest &= rest - 1 {
		in := b.inc[bits.TrailingZeros64(rest)*b.predWords+w]
		l |= in[0]
		r |= in[1]
	}
	return l, r
}

// AppendJoinCols appends, for an enumerated join between outer and inner,
// the column pairs of the equality predicates linking them — outer-side
// columns to outerCols, inner-side columns to innerCols, index-aligned and
// in JoinPreds order. The buffers are caller-owned (passed with len 0 on the
// hot paths, where they are reused join over join). A caller holding the
// two MEMO entries asks AppendJoinColsFromSides instead.
func (b *Block) AppendJoinCols(outer, inner bitset.Set, outerCols, innerCols []ColID) ([]ColID, []ColID) {
	for w := 0; w < b.predWords; w++ {
		ol, or := b.predSides(outer, w)
		il, ir := b.predSides(inner, w)
		outerCols, innerCols = b.appendJoinColsWord(w, ol, or, il, ir, outerCols, innerCols)
	}
	return outerCols, innerCols
}

// AppendJoinColsFromSides is AppendJoinCols for the sets whose predicate
// sides are outer and inner.
func (b *Block) AppendJoinColsFromSides(outer, inner Sides, outerCols, innerCols []ColID) ([]ColID, []ColID) {
	for w := range outer {
		o, i := outer[w], inner[w]
		outerCols, innerCols = b.appendJoinColsWord(w, o[0], o[1], i[0], i[1], outerCols, innerCols)
	}
	return outerCols, innerCols
}

// appendJoinColsWord appends the join columns of predicate word w given
// that word of the outer's (ol, or) and the inner's (il, ir) sides.
func (b *Block) appendJoinColsWord(w int, ol, or, il, ir uint64, outerCols, innerCols []ColID) ([]ColID, []ColID) {
	fwd := ol & ir & b.eqMask[w] // Left column on the outer side
	for x := fwd | or&il&b.eqMask[w]; x != 0; x &= x - 1 {
		k := bits.TrailingZeros64(x)
		p := &b.JoinPreds[w*64+k]
		if fwd>>k&1 != 0 {
			outerCols = append(outerCols, p.Left)
			innerCols = append(innerCols, p.Right)
		} else {
			outerCols = append(outerCols, p.Right)
			innerCols = append(innerCols, p.Left)
		}
	}
	return outerCols, innerCols
}

// Neighbors returns the tables adjacent (via any join predicate) to any
// table in s, excluding s itself. Finalize must have run.
func (b *Block) Neighbors(s bitset.Set) bitset.Set {
	var out bitset.Set
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = out.Union(b.adjacency[i])
	}
	return out.Diff(s)
}

// Connects reports whether at least one join predicate links table set s
// with table set l.
func (b *Block) Connects(s, l bitset.Set) bool {
	return b.Neighbors(s).Overlaps(l)
}

// AppendPredsBetween appends the indexes (into JoinPreds) of all predicates
// with one column in s and the other in l, grouped by (table of s, table of
// l) in ascending order and ascending within a group — the order products
// of their selectivities are taken in. Only the tables of l adjacent to i
// can share a predicate with it, so only they are visited.
func (b *Block) AppendPredsBetween(dst []int, s, l bitset.Set) []int {
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		peers := l.Intersect(b.adjacency[i])
		for j := peers.Next(0); j >= 0; j = peers.Next(j + 1) {
			for w := 0; w < b.predWords; w++ {
				a, c := b.inc[i*b.predWords+w], b.inc[j*b.predWords+w]
				for x := (a[0] | a[1]) & (c[0] | c[1]); x != 0; x &= x - 1 {
					dst = append(dst, w*64+bits.TrailingZeros64(x))
				}
			}
		}
	}
	return dst
}

// AppendPredsWithin appends the indexes of all join predicates whose two
// sides are both inside s, in ascending order.
func (b *Block) AppendPredsWithin(dst []int, s bitset.Set) []int {
	for w := 0; w < b.predWords; w++ {
		l, r := b.predSides(s, w)
		for x := l & r; x != 0; x &= x - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(x))
		}
	}
	return dst
}

// IsConnected reports whether the induced join graph on s is connected.
// Singleton sets are connected.
func (b *Block) IsConnected(s bitset.Set) bool {
	if s.Empty() {
		return false
	}
	frontier := bitset.Single(s.Min())
	reached := frontier
	for !frontier.Empty() {
		next := b.Neighbors(reached).Intersect(s)
		frontier = next.Diff(reached)
		reached = reached.Union(frontier)
	}
	return reached == s
}

// unionFind is a minimal union-find over column ids used by the transitive
// closure and the per-entry equivalence classes. It keeps no rank array and
// find performs no path compression: the forests are shallow, and the
// per-entry instance is a view over MEMO arena storage that EquivFromSides
// flattens itself.
type unionFind struct {
	parent []int32
}

// newUnionFind makes singleton classes of the columns over parent, one
// element per column.
func newUnionFind(parent []int32) unionFind {
	uf := unionFind{parent: parent}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// find returns x's root. It ignores Equiv's futureJoinBit, which
// EquivFromSides sets on roots before it flattens.
func (u *unionFind) find(x int) int {
	for {
		p := int(u.parent[x] &^ futureJoinBit)
		if p == x {
			return x
		}
		x = p
	}
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = int32(ra)
	}
}
