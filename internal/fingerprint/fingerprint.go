// Package fingerprint computes a canonical 128-bit structural hash of a
// query block — the key of the cross-query memoization layer.
//
// COTE's output for a query depends only on its *structure*: the join graph
// (edges with their operators and column statistics), the per-table local
// predicate shapes, the outer-join restrictions, and the clauses that seed
// interesting orders and partitions (GROUP BY / ORDER BY / FETCH FIRST,
// index and partitioning keys). It does not depend on how tables are
// spelled, which aliases they go by, in what order the FROM list mentions
// them, or what constants the predicates compare against (constants enter
// only through selectivities, which the parser derives from column NDVs).
// Two blocks with equal fingerprints therefore produce identical plan
// counts at any optimization level, so a repeat fingerprint can skip join
// enumeration entirely.
//
// # Canonicalization
//
// The hard part is quantifier renaming: the same structure must hash
// identically no matter how the block happens to number its tables. The
// package canonicalizes the join graph with color refinement
// (Weisfeiler-Lehman style) plus individualization:
//
//  1. Every table starts with a color hashed from its label-free local
//     signature: base-table row count (or the recursive fingerprint of a
//     derived table's block), index column shapes, partitioning keys,
//     local-predicate multiset, and its appearances in the GROUP BY /
//     ORDER BY / select clauses.
//  2. Colors are refined iteratively: each round rehashes a table's color
//     with the sorted multiset of (edge attributes, neighbor color) over
//     its join predicates and outer-join constraints, until the color
//     partition stabilizes.
//  3. While colors remain tied, one member of the smallest tied class is
//     individualized (given a fresh color) and refinement reruns. Tied
//     tables are symmetric in practice (star satellites, self-join arms),
//     so the choice of member does not change the final encoding.
//
// The resulting total color order is a canonical table numbering. The block
// is then serialized exactly — every table, predicate, constraint and
// clause under canonical numbers, with per-edge sorting where order is
// semantically irrelevant — and hashed with FNV-128a. Distinct structures
// produce distinct encodings by construction, so fingerprint collisions
// require a 128-bit hash collision.
//
// # Canonical blocks
//
// Equal fingerprints guarantee equal structure, but the enumerator's plan
// counts are not perfectly invariant under table renumbering: first-join-only
// property propagation (DB2 experience item 4) makes the propagated order
// lists depend on which join reaches a MEMO entry first, which follows the
// bitset numbering — measurably a sub-percent wobble on large blocks.
// Canonical therefore rebuilds a block with tables renumbered into canonical
// order and predicates canonically sorted. Two fingerprint-equal blocks
// rebuild into bit-identical canonical blocks, so estimating the canonical
// block (as the caches do) makes "fingerprint equality ⇒ identical plan
// counts" hold by construction.
package fingerprint

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
)

// FP is a 128-bit structural fingerprint. It is comparable and suitable as
// a map key.
type FP struct {
	Hi, Lo uint64
}

// String renders the fingerprint as 32 hex digits.
func (f FP) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// IsZero reports whether the fingerprint is the zero value (no real
// fingerprint hashes to zero in practice; the zero value means "absent").
func (f FP) IsZero() bool { return f == FP{} }

// Analysis is the canonicalization of one block, computed once by Analyze:
// the fingerprint, and the canonical numbering (with the analyses of nested
// blocks) that Canonical rebuilds from without re-running color refinement.
type Analysis struct {
	FP       FP
	blk      *query.Block
	rank     ranks      // rank[i] = canonical position of table i
	children []Analysis // per table index, set for derived tables; nil without any
}

// ranks maps table indexes to canonical positions; Finalize bounds a block
// to bitset.MaxElems tables, so a position fits a byte.
type ranks [bitset.MaxElems]uint8

// Analyze fingerprints blk. The block must be finalized (implied predicates
// present — they are part of the structure the enumerator sees). Nested
// blocks are analyzed recursively; the child fingerprints stand in for the
// derived tables in the parent's encoding. Its working storage is on the
// stack for blocks of up to bitset.MaxElems predicates of each kind.
func Analyze(blk *query.Block) Analysis {
	a := Analysis{blk: blk}
	for i, t := range blk.Tables {
		if t.IsDerived() {
			if a.children == nil {
				a.children = make([]Analysis, blk.NumTables())
			}
			a.children[i] = Analyze(t.Derived)
		}
	}
	canonicalOrder(blk, a.children, &a.rank)
	a.FP = encodeBlock(blk, &a.rank, a.children)
	return a
}

// Canonical returns a structurally identical rebuild of the analyzed block —
// tables renumbered into canonical fingerprint order under fresh aliases,
// predicates canonically sorted, implied predicates re-derived. Any two
// blocks with equal fingerprints rebuild into identical canonical blocks, so
// plan counts computed over the canonical block depend only on the
// fingerprint (see the package comment). The error path is defensive:
// rebuilding a block the query package already accepted cannot ordinarily
// fail.
func (a Analysis) Canonical() (*query.Block, error) {
	return a.CanonicalIn(new(query.Arena))
}

// CanonicalIn is Canonical with the rebuild carved from ar: it is valid
// until ar's next Reset.
func (a Analysis) CanonicalIn(ar *query.Arena) (*query.Block, error) {
	return rebuild(ar, a.blk, a.rank, a.children)
}

// Of computes the structural fingerprint of a block: Analyze(blk).FP.
func Of(blk *query.Block) FP { return Analyze(blk).FP }

// Canonical returns the canonical rebuild of blk together with its
// fingerprint: Analyze followed by Analysis.Canonical.
func Canonical(blk *query.Block) (*query.Block, FP, error) {
	a := Analyze(blk)
	cb, err := a.Canonical()
	return cb, a.FP, err
}

// orHeap returns n elements of buf, or of a new slice when buf is too
// short: the stack holds the working set of every block up to its bound.
func orHeap[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// encVersion guards the encoding layout: bump it whenever the byte format
// changes so stale persisted fingerprints (if any ever exist) cannot alias
// new ones.
const encVersion = 1

// Domain-separation tags mixed into color and encoding hashes.
const (
	tagBase uint64 = 0x6261_7365 + iota<<32
	tagDerived
	tagIndex
	tagPartition
	tagLocalPred
	tagGroupBy
	tagOrderBy
	tagSelect
	tagOJNullProducing
	tagOJPredReq
	tagIndividualize
)

// mix folds v into h with a splitmix64-style finalizer — cheap, and strong
// enough that refinement colors only collide with negligible probability
// (and a color collision merely coarsens the partition; the final encoding
// is exact either way).
func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// foldSorted sorts vs and folds them into h — the order-insensitive multiset
// combine, here for one table's index shapes or one outer join's required
// colours; foldByTable is the same combine for every table at once.
func foldSorted(h uint64, vs []uint64) uint64 {
	slices.Sort(vs)
	for _, v := range vs {
		h = mix(h, v)
	}
	return h
}

func fbits(x float64) uint64 { return math.Float64bits(x) }

// colOrd returns the position of column id within its table reference —
// the alias-free column identity.
func colOrd(blk *query.Block, id query.ColID) uint64 {
	c := blk.Column(id)
	return uint64(id - c.Ref.FirstCol)
}

func colNDV(blk *query.Block, id query.ColID) uint64 {
	return fbits(blk.Column(id).Col.NDV)
}

// flip mirrors a predicate operator for swapped operands (a < b ≡ b > a).
func flip(op query.PredOp) query.PredOp {
	switch op {
	case query.Lt:
		return query.Gt
	case query.Gt:
		return query.Lt
	case query.Le:
		return query.Ge
	case query.Ge:
		return query.Le
	}
	return op
}

// contrib is one hash bound for a table's colour.
type contrib struct {
	table int
	hash  uint64
}

// foldByTable folds each table's contributions into its colour in ascending
// hash order — the order-insensitive multiset combine used for neighbor
// contributions and per-table predicate sets. Every contribution must have
// been computed before the call: it overwrites the colours they read.
func foldByTable(colors []uint64, cs []contrib) {
	slices.SortFunc(cs, func(a, b contrib) int {
		return cmp.Or(cmp.Compare(a.table, b.table), cmp.Compare(a.hash, b.hash))
	})
	for _, c := range cs {
		colors[c.table] = mix(colors[c.table], c.hash)
	}
}

// edge is one join predicate's attributes, oriented from each endpoint's
// perspective.
type edge struct {
	lt, rt         int
	attrLt, attrRt uint64
}

// refiner is the state of one block's colour refinement, every slice sized
// once per block.
type refiner struct {
	blk      *query.Block
	colors   []uint64 // per table
	scratch  []uint64 // one word per table: sorted colours, an outer join's required colours
	prev     []uint8  // class ids of the partition before and after a round
	cur      []uint8
	edges    []edge
	contribs []contrib // capacity for one round: a contribution per predicate endpoint and outer-join constraint
}

// round rehashes every table's colour with its neighbours' current colours:
// one contribution per join predicate endpoint and per outer-join constraint.
func (r *refiner) round() {
	cs := r.contribs[:0]
	for _, e := range r.edges {
		cs = append(cs, contrib{e.lt, mix(e.attrLt, r.colors[e.rt])}, contrib{e.rt, mix(e.attrRt, r.colors[e.lt])})
	}
	for _, oj := range r.blk.OuterJoins {
		req := r.scratch[:0]
		for m := oj.PredReq.Next(0); m >= 0; m = oj.PredReq.Next(m + 1) {
			req = append(req, r.colors[m])
			cs = append(cs, contrib{m, mix(tagOJPredReq, r.colors[oj.NullProducing])})
		}
		cs = append(cs, contrib{oj.NullProducing, foldSorted(tagOJNullProducing, req)})
	}
	foldByTable(r.colors, cs)
}

// classIDs maps colors to dense class ids numbered in order of first
// appearance — used only to detect whether the partition changed, never for
// ordering, so the index dependence is harmless.
func classIDs(colors []uint64, ids []uint8) {
	next := uint8(0)
	for i, c := range colors {
		if j := slices.Index(colors[:i], c); j >= 0 {
			ids[i] = ids[j]
		} else {
			ids[i] = next
			next++
		}
	}
}

// refine runs rounds until the color partition stabilizes.
func (r *refiner) refine() {
	classIDs(r.colors, r.prev)
	for round := 0; round < len(r.colors); round++ {
		r.round()
		classIDs(r.colors, r.cur)
		if slices.Equal(r.cur, r.prev) {
			break
		}
		r.prev, r.cur = r.cur, r.prev
	}
}

// smallestTie returns the smallest colour two tables share.
func (r *refiner) smallestTie() (tied uint64, found bool) {
	sorted := append(r.scratch[:0], r.colors...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i], true
		}
	}
	return 0, false
}

// canonicalOrder sets rank[i] to the canonical position of table i,
// computed by color refinement with individualization over the join graph.
func canonicalOrder(blk *query.Block, children []Analysis, rank *ranks) {
	n := blk.NumTables()
	if n == 1 {
		rank[0] = 0
		return
	}
	var (
		words    [2 * bitset.MaxElems]uint64
		ids      [2 * bitset.MaxElems]uint8
		edges    [bitset.MaxElems]edge
		contribs [2 * bitset.MaxElems]contrib
	)
	r := refiner{
		blk: blk, colors: words[:n:n], scratch: words[n : 2*n], prev: ids[:n:n], cur: ids[n : 2*n],
		edges:    orHeap(edges[:], len(blk.JoinPreds)),
		contribs: orHeap(contribs[:], 2*len(blk.JoinPreds)+(n+1)*len(blk.OuterJoins))[:0],
	}
	initialColors(blk, children, r.colors)
	for i, p := range blk.JoinPreds {
		implied := uint64(0)
		if p.Implied {
			implied = 1
		}
		lo, ln := colOrd(blk, p.Left), colNDV(blk, p.Left)
		ro, rn := colOrd(blk, p.Right), colNDV(blk, p.Right)
		r.edges[i] = edge{
			lt: blk.TableOf(p.Left), rt: blk.TableOf(p.Right),
			attrLt: mix(mix(mix(mix(mix(uint64(p.Op), lo), ln), ro), rn), implied),
			attrRt: mix(mix(mix(mix(mix(uint64(flip(p.Op)), ro), rn), lo), ln), implied),
		}
	}
	r.refine()

	// Individualize while ties remain: give one member of the smallest tied
	// color class a fresh color and re-refine. Tied members are symmetric
	// (or the graph is one of the regular corner cases refinement cannot
	// split — there the choice below may vary with input numbering, costing
	// a cache miss on an exotic isomorph, never a wrong answer).
	for round := 0; round <= 2*n; round++ {
		tied, found := r.smallestTie()
		if !found {
			break
		}
		i := slices.Index(r.colors, tied)
		r.colors[i] = mix(mix(tagIndividualize, uint64(round)), tied)
		r.refine()
	}

	// Total order by final color; ties broken by index (unreachable unless
	// the individualization loop bailed out).
	idx := r.cur
	for i := range idx {
		idx[i] = uint8(i)
	}
	slices.SortFunc(idx, func(a, b uint8) int {
		return cmp.Or(cmp.Compare(r.colors[a], r.colors[b]), cmp.Compare(a, b))
	})
	for pos, i := range idx {
		rank[i] = uint8(pos)
	}
}

// indexShapes returns, in buf's storage, one hash per index of t: uniqueness
// and the ordered (ordinal, NDV) column sequence — a multiset, since index
// order in the schema is not structural.
func indexShapes(t *catalog.Table, buf []uint64) []uint64 {
	buf = buf[:0]
	for _, ix := range t.Indexes {
		ih := tagIndex
		if ix.Unique {
			ih = mix(ih, 1)
		}
		for _, name := range ix.Columns {
			c := t.MustColumn(name)
			ih = mix(mix(ih, uint64(c.Ordinal)), fbits(c.NDV))
		}
		buf = append(buf, ih)
	}
	return buf
}

// initialColors seeds each table's color from its label-free local
// signature: everything about the table that influences estimation except
// its join-graph context (which refinement adds).
func initialColors(blk *query.Block, children []Analysis, colors []uint64) {
	var ixBuf [8]uint64
	for i, t := range blk.Tables {
		h := uint64(0x636f7465) // base seed
		if t.IsDerived() {
			h = mix(h, tagDerived)
			h = mix(h, children[i].FP.Hi)
			h = mix(h, children[i].FP.Lo)
			if t.Correlated {
				h = mix(h, 1)
			}
		} else {
			h = mix(h, tagBase)
			h = mix(h, fbits(t.Table.RowCount))
			h = foldSorted(h, indexShapes(t.Table, ixBuf[:0]))
			if p := t.Table.Partitioning; p != nil {
				ph := mix(tagPartition, uint64(p.Nodes))
				for _, name := range p.Columns {
					ph = mix(ph, uint64(t.Table.MustColumn(name).Ordinal))
				}
				h = mix(h, ph)
			}
		}
		colors[i] = h
	}
	// Local predicates contribute per owning table as a multiset.
	var buf [bitset.MaxElems]contrib
	cs := orHeap(buf[:], len(blk.LocalPreds)+len(blk.GroupBy)+len(blk.OrderBy)+len(blk.Select))[:0]
	for _, lp := range blk.LocalPreds {
		ph := mix(tagLocalPred, uint64(lp.Op))
		ph = mix(ph, colOrd(blk, lp.Col))
		ph = mix(ph, fbits(lp.Selectivity))
		if lp.Implied {
			ph = mix(ph, 1)
		}
		if lp.Expensive {
			ph = mix(ph, 2)
		}
		cs = append(cs, contrib{blk.TableOf(lp.Col), ph})
	}
	// Clause appearances: position within the clause matters and is
	// invariant under table renaming, so it is part of the contribution.
	clause := func(tag uint64, cols []query.ColID) {
		for pos, id := range cols {
			cs = append(cs, contrib{blk.TableOf(id), mix(mix(mix(tag, uint64(pos)), colOrd(blk, id)), colNDV(blk, id))})
		}
	}
	clause(tagGroupBy, blk.GroupBy)
	clause(tagOrderBy, blk.OrderBy)
	clause(tagSelect, blk.Select)
	foldByTable(colors, cs)
}

// encoder hashes the canonical byte string as it is written: FNV-128a, as
// hash/fnv computes it, over each word's eight little-endian bytes. The
// encoding is never held whole.
type encoder struct{ hi, lo uint64 }

func newEncoder() encoder { return encoder{hi: 0x6c62272e07bb0142, lo: 0x62b821756295c58d} }

func (e *encoder) u64(v uint64) {
	const prime = 0x13b // the FNV-128 prime is 2^88 + 0x13b
	for i := 0; i < 8; i, v = i+1, v>>8 {
		e.lo ^= v & 0xff
		hi, lo := bits.Mul64(prime, e.lo)
		e.hi, e.lo = hi+e.lo<<24+prime*e.hi, lo
	}
}

func (e *encoder) words(vs ...uint64) {
	for _, v := range vs {
		e.u64(v)
	}
}

// encodeBlock serializes the block exactly under canonical table numbering
// and returns the hash of the serialization.
func encodeBlock(blk *query.Block, rank *ranks, children []Analysis) FP {
	n := blk.NumTables()
	var inv ranks // canonical position -> table index
	for i := range n {
		inv[rank[i]] = uint8(i)
	}

	e := newEncoder()
	var ixBuf [8]uint64
	e.words(encVersion, uint64(n))

	// Tables in canonical order.
	for pos := 0; pos < n; pos++ {
		t := blk.Tables[inv[pos]]
		if t.IsDerived() {
			corr := uint64(0)
			if t.Correlated {
				corr = 1
			}
			e.words(tagDerived, children[t.Index].FP.Hi, children[t.Index].FP.Lo, corr)
			continue
		}
		e.words(tagBase, fbits(t.Table.RowCount))
		// Indexes and partitioning, as in the color seed but written
		// explicitly (sorted hashes — index order in the schema is not
		// structural).
		ixs := indexShapes(t.Table, ixBuf[:0])
		slices.Sort(ixs)
		e.u64(uint64(len(ixs)))
		e.words(ixs...)
		if p := t.Table.Partitioning; p != nil {
			e.words(tagPartition, uint64(p.Nodes), uint64(len(p.Columns)))
			for _, name := range p.Columns {
				e.u64(uint64(t.Table.MustColumn(name).Ordinal))
			}
		} else {
			e.u64(0)
		}
	}

	// col writes a column reference as (canonical table, ordinal, NDV).
	col := func(id query.ColID) [3]uint64 {
		return [3]uint64{uint64(rank[blk.TableOf(id)]), colOrd(blk, id), colNDV(blk, id)}
	}

	// Local predicates: sorted tuple list (order in the block is not
	// structural). One scratch slice serves this sort and the join
	// predicates'; the two words a local predicate leaves unused stay zero.
	var tupleBuf [bitset.MaxElems][8]uint64
	tuples := orHeap(tupleBuf[:], max(len(blk.LocalPreds), len(blk.JoinPreds)))[:0]
	byWords := func(a, b [8]uint64) int { return slices.Compare(a[:], b[:]) }
	lps := tuples
	for _, lp := range blk.LocalPreds {
		c := col(lp.Col)
		flags := uint64(0)
		if lp.Implied {
			flags |= 1
		}
		if lp.Expensive {
			flags |= 2
		}
		lps = append(lps, [8]uint64{c[0], c[1], uint64(lp.Op), fbits(lp.Selectivity), flags, c[2]})
	}
	slices.SortFunc(lps, byWords)
	e.u64(uint64(len(lps)))
	for _, lp := range lps {
		e.words(lp[:6]...)
	}

	// Join predicates: canonical endpoint orientation (smaller canonical
	// column first, operator mirrored when swapped), then sorted.
	jps := tuples
	for _, jp := range blk.JoinPreds {
		l, r := col(jp.Left), col(jp.Right)
		op := jp.Op
		if slices.Compare(l[:2], r[:2]) > 0 {
			l, r = r, l
			op = flip(op)
		}
		implied := uint64(0)
		if jp.Implied {
			implied = 1
		}
		jps = append(jps, [8]uint64{l[0], l[1], r[0], r[1], uint64(op), implied, l[2], r[2]})
	}
	slices.SortFunc(jps, byWords)
	e.u64(uint64(len(jps)))
	for _, jp := range jps {
		e.words(jp[:]...)
	}

	// Outer joins: (canonical null-producing table, sorted canonical
	// PredReq members), sorted.
	var ojBuf [bitset.MaxElems]ojRow
	ojs := canonOuterJoins(blk, rank, ojBuf[:])
	e.u64(uint64(len(ojs)))
	for _, row := range ojs {
		e.words(uint64(1+row.req.Len()), uint64(row.null))
		for m := row.req.Next(0); m >= 0; m = row.req.Next(m + 1) {
			e.u64(uint64(m))
		}
	}

	// Ordered clauses: element order is semantic, so it is preserved.
	clause := func(tag uint64, cols []query.ColID) {
		e.words(tag, uint64(len(cols)))
		for _, id := range cols {
			c := col(id)
			e.words(c[:]...)
		}
	}
	clause(tagGroupBy, blk.GroupBy)
	clause(tagOrderBy, blk.OrderBy)
	clause(tagSelect, blk.Select)
	e.words(uint64(blk.NumAggs), uint64(blk.FirstN))
	return FP{Hi: e.hi, Lo: e.lo}
}

// ojRow is one outer join under canonical numbering: the null-producing
// table's position and the set of positions of the tables it requires.
type ojRow struct {
	null uint8
	req  bitset.Set
}

// canonOuterJoins returns blk's outer joins under rank, in buf's storage,
// sorted as the rows (null position, required positions ascending) compare
// lexicographically — the order the encoding writes them in and the rebuild
// adds them in.
func canonOuterJoins(blk *query.Block, rank *ranks, buf []ojRow) []ojRow {
	rows := orHeap(buf, len(blk.OuterJoins))
	for i, oj := range blk.OuterJoins {
		var req bitset.Set
		for m := oj.PredReq.Next(0); m >= 0; m = oj.PredReq.Next(m + 1) {
			req = req.Add(int(rank[m]))
		}
		rows[i] = ojRow{null: rank[oj.NullProducing], req: req}
	}
	slices.SortFunc(rows, func(a, b ojRow) int {
		if c := cmp.Compare(a.null, b.null); c != 0 {
			return c
		}
		x, y := a.req, b.req
		for !x.Empty() && !y.Empty() {
			if c := cmp.Compare(x.Min(), y.Min()); c != 0 {
				return c
			}
			x, y = x.Remove(x.Min()), y.Remove(y.Min())
		}
		return cmp.Compare(x.Len(), y.Len()) // a prefix sorts first
	})
	return rows
}

// canonAlias[pos] is the alias a canonical block gives the table at position
// pos.
var canonAlias = func() (a [bitset.MaxElems]string) {
	for pos := range a {
		a[pos] = "q" + strconv.Itoa(pos)
	}
	return a
}()

// rebuild reconstructs blk under canonical table numbering: tables are added
// in canonical order under positional aliases, non-implied predicates are
// added in canonically sorted order (implied ones are re-derived by
// Finalize from the same inputs, so they come out identical), and nested
// blocks are rebuilt recursively. The output is a pure function of the
// fingerprint encoding. The rebuilt blocks are carved from ar; the sort
// scratch is on the stack for blocks of up to bitset.MaxElems predicates
// of each kind.
func rebuild(ar *query.Arena, blk *query.Block, rank ranks, children []Analysis) (*query.Block, error) {
	n := blk.NumTables()
	var inv ranks
	for i := range n {
		inv[rank[i]] = uint8(i)
	}
	qb := ar.NewBuilder(blk.Name, blk.Catalog)
	for pos := 0; pos < n; pos++ {
		ref := blk.Tables[inv[pos]]
		alias := canonAlias[pos]
		if ref.IsDerived() {
			child, err := children[ref.Index].CanonicalIn(ar)
			if err != nil {
				return nil, err
			}
			qb.AddDerived(child, alias, ref.Correlated)
		} else {
			qb.AddTable(ref.Table.Name, alias)
		}
	}
	mapCol := func(id query.ColID) query.ColID {
		ref := blk.Column(id).Ref
		return qb.ColByTableIndex(int(rank[ref.Index]), int(id-ref.FirstCol))
	}

	// Join predicates in canonical orientation and canonically sorted order
	// — the same tuples the encoding writes, so two fingerprint-equal blocks
	// add them identically.
	type jp struct {
		key         [6]uint64
		left, right query.ColID
		op          query.PredOp
	}
	var jpBuf [bitset.MaxElems]jp
	jps := orHeap(jpBuf[:], len(blk.JoinPreds))[:0]
	for _, p := range blk.JoinPreds {
		if p.Implied {
			continue
		}
		l := [2]uint64{uint64(rank[blk.TableOf(p.Left)]), colOrd(blk, p.Left)}
		r := [2]uint64{uint64(rank[blk.TableOf(p.Right)]), colOrd(blk, p.Right)}
		left, right, op := p.Left, p.Right, p.Op
		if slices.Compare(l[:], r[:]) > 0 {
			l, r = r, l
			left, right = right, left
			op = flip(op)
		}
		jps = append(jps, jp{key: [6]uint64{l[0], l[1], r[0], r[1], uint64(op), 0}, left: left, right: right, op: op})
	}
	slices.SortFunc(jps, func(a, b jp) int { return slices.Compare(a.key[:], b.key[:]) })
	for _, p := range jps {
		qb.Join(mapCol(p.left), mapCol(p.right), p.op)
	}

	type lp struct {
		key  [5]uint64
		pred query.LocalPred
	}
	var lpBuf [bitset.MaxElems]lp
	lps := orHeap(lpBuf[:], len(blk.LocalPreds))[:0]
	for _, p := range blk.LocalPreds {
		if p.Implied {
			continue
		}
		exp := uint64(0)
		if p.Expensive {
			exp = 1
		}
		lps = append(lps, lp{
			key:  [5]uint64{uint64(rank[blk.TableOf(p.Col)]), colOrd(blk, p.Col), uint64(p.Op), fbits(p.Selectivity), exp},
			pred: p,
		})
	}
	slices.SortFunc(lps, func(a, b lp) int { return slices.Compare(a.key[:], b.key[:]) })
	for _, p := range lps {
		if p.pred.Expensive {
			qb.ExpensiveFilter(mapCol(p.pred.Col), p.pred.Selectivity)
		} else {
			qb.Filter(mapCol(p.pred.Col), p.pred.Op, p.pred.Selectivity)
		}
	}

	var ojBuf [bitset.MaxElems]ojRow
	var req [bitset.MaxElems]int
	for _, o := range canonOuterJoins(blk, &rank, ojBuf[:]) {
		n := 0
		for m := o.req.Next(0); m >= 0; m = o.req.Next(m + 1) {
			req[n] = m
			n++
		}
		qb.LeftOuter(int(o.null), req[:n]...)
	}

	// The builder copies what it is handed, so one buffer serves all three
	// clauses.
	var colBuf [bitset.MaxElems]query.ColID
	buf := orHeap(colBuf[:], max(len(blk.GroupBy), len(blk.OrderBy), len(blk.Select)))
	mapCols := func(cols []query.ColID) []query.ColID {
		buf = buf[:0]
		for _, c := range cols {
			buf = append(buf, mapCol(c))
		}
		return buf
	}
	qb.GroupBy(mapCols(blk.GroupBy)...)
	qb.OrderBy(mapCols(blk.OrderBy)...)
	qb.SelectCols(mapCols(blk.Select)...)
	qb.Aggregates(blk.NumAggs)
	qb.FetchFirst(blk.FirstN)
	return qb.Build()
}
