package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
)

// Differential tests of the predicate-set arithmetic. The walks it replaced —
// one pass over every predicate of the block per question, through
// Column(id).Ref.Index — are kept below as oracles, bodies verbatim apart
// from taking the block as a parameter, and every new path must agree with
// them: same predicates, same columns, same order, same representatives.

// --- oracles: the code before the masks ---

func oracleTableOf(b *Block, id ColID) int { return b.Column(id).Ref.Index }

func oracleEqPreds(blk *Block) []int {
	var eqPreds []int
	for i, p := range blk.JoinPreds {
		if p.Op == Eq {
			eqPreds = append(eqPreds, i)
		}
	}
	return eqPreds
}

func oracleAppendJoinColsBetween(blk *Block, outer, inner bitset.Set, outerCols, innerCols []ColID) ([]ColID, []ColID) {
	for _, i := range oracleEqPreds(blk) {
		p := blk.JoinPreds[i]
		lt, rt := oracleTableOf(blk, p.Left), oracleTableOf(blk, p.Right)
		switch {
		case outer.Contains(lt) && inner.Contains(rt):
			outerCols = append(outerCols, p.Left)
			innerCols = append(innerCols, p.Right)
		case outer.Contains(rt) && inner.Contains(lt):
			outerCols = append(outerCols, p.Right)
			innerCols = append(innerCols, p.Left)
		}
	}
	return outerCols, innerCols
}

func oracleFutureJoinCols(blk *Block, s bitset.Set) []ColID {
	out := []ColID{}
	for _, i := range oracleEqPreds(blk) {
		p := blk.JoinPreds[i]
		lt, rt := oracleTableOf(blk, p.Left), oracleTableOf(blk, p.Right)
		switch {
		case s.Contains(lt) && !s.Contains(rt):
			out = append(out, p.Left)
		case s.Contains(rt) && !s.Contains(lt):
			out = append(out, p.Right)
		}
	}
	return out
}

// oracleSides ORs the incidence of the tables of s, one predicate at a
// time.
func oracleSides(b *Block, s bitset.Set) Sides {
	sides := make(Sides, b.predWords)
	for i, p := range b.JoinPreds {
		if s.Contains(oracleTableOf(b, p.Left)) {
			sides[i/64][0] |= 1 << (i % 64)
		}
		if s.Contains(oracleTableOf(b, p.Right)) {
			sides[i/64][1] |= 1 << (i % 64)
		}
	}
	return sides
}

// oracleFlatten is the whole-array flatten EquivWithin used to end with.
func oracleFlatten(u *unionFind) {
	for i := range u.parent {
		u.parent[i] = int32(u.find(i))
	}
}

func oracleEquivWithin(b *Block, s bitset.Set) []int32 {
	uf := newUnionFind(make([]int32, len(b.Columns)))
	for i := range b.JoinPreds {
		p := &b.JoinPreds[i]
		if p.Op != Eq {
			continue
		}
		lt, rt := oracleTableOf(b, p.Left), oracleTableOf(b, p.Right)
		if s.Contains(lt) && s.Contains(rt) {
			uf.union(int(p.Left), int(p.Right))
		}
	}
	oracleFlatten(&uf)
	return uf.parent
}

func oraclePairKey(a, c int) [2]int {
	if a > c {
		a, c = c, a
	}
	return [2]int{a, c}
}

func oraclePredsBetween(b *Block, s, l bitset.Set) []int {
	predsByPair := make(map[[2]int][]int)
	for i, p := range b.JoinPreds {
		key := oraclePairKey(oracleTableOf(b, p.Left), oracleTableOf(b, p.Right))
		predsByPair[key] = append(predsByPair[key], i)
	}
	var out []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		for j := l.Next(0); j >= 0; j = l.Next(j + 1) {
			out = append(out, predsByPair[oraclePairKey(i, j)]...)
		}
	}
	return out
}

func oraclePredsWithin(b *Block, s bitset.Set) []int {
	var out []int
	for i, p := range b.JoinPreds {
		if s.Contains(oracleTableOf(b, p.Left)) && s.Contains(oracleTableOf(b, p.Right)) {
			out = append(out, i)
		}
	}
	return out
}

// --- the blocks ---

// graphSpec describes one generated block: n tables joined along edges,
// preds predicates per edge.
type graphSpec struct {
	name  string
	n     int
	edges [][2]int
	preds int
	// shared makes every edge use the same columns of its tables, so the
	// transitive closure adds Implied predicates and cycles.
	shared bool
	// nonEqEvery makes every nonEqEvery-th predicate a < rather than an =.
	nonEqEvery int
	// outer marks the last table null-producing, requiring table 0.
	outer bool
}

func chainEdges(n int) (e [][2]int) {
	for i := 0; i+1 < n; i++ {
		e = append(e, [2]int{i, i + 1})
	}
	return e
}

func starEdges(n int) (e [][2]int) {
	for i := 1; i < n; i++ {
		e = append(e, [2]int{0, i})
	}
	return e
}

func cliqueEdges(n int) (e [][2]int) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e = append(e, [2]int{i, j})
		}
	}
	return e
}

// randomEdges is a random spanning tree plus extra random edges, written in
// shuffled order and orientation so predicate order is unrelated to table
// order.
func randomEdges(n int, rng *rand.Rand) (e [][2]int) {
	have := map[[2]int]bool{}
	add := func(a, b int) {
		if a != b && !have[oraclePairKey(a, b)] {
			have[oraclePairKey(a, b)] = true
			e = append(e, [2]int{a, b})
		}
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
	}
	for k := 0; k < n; k++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	rng.Shuffle(len(e), func(i, j int) { e[i], e[j] = e[j], e[i] })
	return e
}

func (g graphSpec) build(t testing.TB) *Block {
	t.Helper()
	ncols := g.n * g.preds
	cb := catalog.NewBuilder(g.name)
	for i := 0; i < g.n; i++ {
		tb := cb.Table(fmt.Sprintf("t%d", i), 1000)
		for c := 0; c < ncols; c++ {
			tb.Column(fmt.Sprintf("c%d", c), float64(10+c))
		}
	}
	qb := NewBuilder(g.name, cb.Build())
	for i := 0; i < g.n; i++ {
		qb.AddTable(fmt.Sprintf("t%d", i), "")
	}
	k := 0
	for _, e := range g.edges {
		for j := 0; j < g.preds; j++ {
			// Unshared: table a's column toward b is a function of b, so no
			// column serves two edges and the closure adds nothing.
			lc, rc := e[1]*g.preds+j, e[0]*g.preds+j
			if g.shared {
				lc, rc = j, j
			}
			op := Eq
			if k++; g.nonEqEvery > 0 && k%g.nonEqEvery == 0 {
				op = Lt
			}
			qb.Join(qb.ColByTableIndex(e[0], lc), qb.ColByTableIndex(e[1], rc), op)
		}
	}
	if g.outer {
		qb.LeftOuter(g.n-1, 0)
	}
	qb.OrderBy(qb.ColByTableIndex(0, 0))
	blk, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// zoo is the 6–8-table blocks every subset and every ordered pair of which
// is checked.
func zoo() []graphSpec {
	rng := rand.New(rand.NewSource(17))
	return []graphSpec{
		{name: "chain6", n: 6, edges: chainEdges(6), preds: 1},
		{name: "chain8x2", n: 8, edges: chainEdges(8), preds: 2},
		{name: "star7", n: 7, edges: starEdges(7), preds: 1},
		{name: "star8x3", n: 8, edges: starEdges(8), preds: 3, nonEqEvery: 4},
		{name: "clique6", n: 6, edges: cliqueEdges(6), preds: 1},
		{name: "clique7x2", n: 7, edges: cliqueEdges(7), preds: 2, nonEqEvery: 5},
		{name: "random7", n: 7, edges: randomEdges(7, rng), preds: 1},
		{name: "random8x2", n: 8, edges: randomEdges(8, rng), preds: 2, nonEqEvery: 3},
		// Shared columns: a.c0 = b.c0 = c.c0 ... closes transitively.
		{name: "chain7implied", n: 7, edges: chainEdges(7), preds: 1, shared: true},
		{name: "star6implied", n: 6, edges: starEdges(6), preds: 2, shared: true, nonEqEvery: 4},
		{name: "random7implied", n: 7, edges: randomEdges(7, rng), preds: 1, shared: true},
		{name: "chain6outer", n: 6, edges: chainEdges(6), preds: 2, outer: true},
		{name: "star7outer", n: 7, edges: starEdges(7), preds: 1, shared: true, outer: true},
	}
}

// --- the comparisons ---

// checkSubset compares everything asked of one table set.
func checkSubset(t *testing.T, blk *Block, s bitset.Set, allPairs bool) {
	t.Helper()
	want := oracleEquivWithin(blk, s)
	eq := blk.EquivWithin(s)
	fj := oracleFutureJoinCols(blk, s)
	for a := range blk.Columns {
		if got := eq.Rep(ColID(a)); got != ColID(want[a]) {
			t.Fatalf("set %v: Rep(%d) = %d, oracle %d", s, a, got, want[a])
		}
		feeds := false
		for _, c := range fj {
			feeds = feeds || want[a] == want[c]
		}
		if got := eq.FutureJoin(ColID(a)); got != feeds {
			t.Fatalf("set %v: FutureJoin(%d) = %v, oracle future-join columns %v say %v", s, a, got, fj, feeds)
		}
		if !allPairs {
			continue
		}
		for b := range blk.Columns {
			if got, w := eq.Same(ColID(a), ColID(b)), want[a] == want[b]; got != w {
				t.Fatalf("set %v: Same(%d, %d) = %v, oracle %v", s, a, b, got, w)
			}
		}
	}
	// Appended behind a sentinel, so a result that drops dst shows.
	if got, w := blk.AppendPredsWithin([]int{-1}, s), oraclePredsWithin(blk, s); got[0] != -1 || !slices.Equal(got[1:], w) {
		t.Fatalf("set %v: AppendPredsWithin after [-1] = %v, oracle %v", s, got, w)
	}
}

// checkPair compares everything asked of one ordered pair of disjoint sets.
func checkPair(t *testing.T, blk *Block, outer, inner bitset.Set) {
	t.Helper()
	oc, ic := blk.AppendJoinCols(outer, inner, nil, nil)
	woc, wic := oracleAppendJoinColsBetween(blk, outer, inner, nil, nil)
	if !slices.Equal(oc, woc) || !slices.Equal(ic, wic) {
		t.Fatalf("%v ⋈ %v: join columns %v / %v, oracle %v / %v", outer, inner, oc, ic, woc, wic)
	}
	oc, ic = blk.AppendJoinColsFromSides(oracleSides(blk, outer), oracleSides(blk, inner), []ColID{-1}, []ColID{-1})
	if oc[0] != -1 || ic[0] != -1 || !slices.Equal(oc[1:], woc) || !slices.Equal(ic[1:], wic) {
		t.Fatalf("%v ⋈ %v: join columns from sides after [-1] %v / %v, oracle %v / %v", outer, inner, oc, ic, woc, wic)
	}
	if got, w := blk.AppendPredsBetween(nil, outer, inner), oraclePredsBetween(blk, outer, inner); !slices.Equal(got, w) {
		t.Fatalf("%v ⋈ %v: PredsBetween = %v, oracle %v", outer, inner, got, w)
	}
}

func TestPredicateSetsMatchOracle(t *testing.T) {
	sawImplied, sawNonEq := false, false
	for _, g := range zoo() {
		blk := g.build(t)
		for _, p := range blk.JoinPreds {
			sawImplied = sawImplied || p.Implied
			sawNonEq = sawNonEq || p.Op != Eq
		}
		for id := range blk.Columns {
			if got, want := blk.TableOf(ColID(id)), oracleTableOf(blk, ColID(id)); got != want {
				t.Fatalf("%s: TableOf(%d) = %d, oracle %d", g.name, id, got, want)
			}
		}
		full := blk.AllTables()
		for s := bitset.Set(0); s <= full; s++ {
			checkSubset(t, blk, s, true)
			if s.Empty() {
				continue
			}
			// Every non-empty subset of the complement, in either role.
			full.Diff(s).SubsetsProper(func(l bitset.Set) bool {
				checkPair(t, blk, s, l)
				return true
			})
			if rest := full.Diff(s); !rest.Empty() {
				checkPair(t, blk, s, rest)
			}
		}
	}
	if !sawImplied || !sawNonEq {
		t.Fatalf("zoo lost its coverage: implied %v, non-equality %v", sawImplied, sawNonEq)
	}
}

// TestPredicateSetsMultiWord runs the same comparison where one word is not
// enough: a 12-table clique with two predicates per edge has 132 equality
// predicates, so every set question spans three words.
func TestPredicateSetsMultiWord(t *testing.T) {
	g := graphSpec{name: "clique12x2", n: 12, edges: cliqueEdges(12), preds: 2, nonEqEvery: 11}
	blk := g.build(t)
	if len(blk.JoinPreds) != 132 || blk.predWords != 3 {
		t.Fatalf("%d predicates in %d words, want 132 in 3", len(blk.JoinPreds), blk.predWords)
	}
	rng := rand.New(rand.NewSource(5))
	full := blk.AllTables()
	for s := bitset.Set(0); s <= full; s++ {
		checkSubset(t, blk, s, false)
		rest := full.Diff(s)
		if s.Empty() || rest.Empty() {
			continue
		}
		checkPair(t, blk, s, rest)
		if l := rest.Intersect(bitset.Set(rng.Uint64())); !l.Empty() {
			checkPair(t, blk, s, l)
			checkPair(t, blk, l, s)
		}
	}
}

// TestSameTablePredicateRejected pins the invariant the crossing arithmetic
// rests on: a predicate incident to both sides of a cut has one column on
// each, because no predicate relates two columns of one table.
func TestSameTablePredicateRejected(t *testing.T) {
	blk := zoo()[0].build(t)
	bad := &Block{
		Name: "bad", Catalog: blk.Catalog, Tables: blk.Tables, Columns: blk.Columns,
		JoinPreds: []JoinPred{{Left: blk.Tables[0].FirstCol, Right: blk.Tables[0].FirstCol + 1, Op: Eq}},
	}
	if err := bad.Finalize(); err == nil {
		t.Fatal("Finalize accepted a join predicate within one table")
	}
}

// TestEquivWithinIntoReusesStorage checks the caller-owned form: the array
// handed in is the array used, whatever it held, and nothing is allocated.
func TestEquivWithinIntoReusesStorage(t *testing.T) {
	blk := zoo()[5].build(t)
	rep := make([]int32, len(blk.Columns))
	for i := range rep {
		rep[i] = -7 // garbage from a previous tenant
	}
	s := bitset.Of(0, 2, 3, 5)
	eq := blk.EquivWithinInto(s, rep)
	want := oracleEquivWithin(blk, s)
	for a := range blk.Columns {
		if eq.Rep(ColID(a)) != ColID(want[a]) {
			t.Fatalf("Rep(%d) = %d over reused storage, oracle %d", a, eq.Rep(ColID(a)), want[a])
		}
	}
	if &eq.rep[0] != &rep[0] {
		t.Fatal("EquivWithinInto did not build in the storage it was given")
	}
	if avg := testing.AllocsPerRun(50, func() { blk.EquivWithinInto(s, rep) }); avg != 0 {
		t.Fatalf("EquivWithinInto = %.0f allocs, want 0", avg)
	}
}
