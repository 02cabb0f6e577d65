package query

import (
	"testing"
	"testing/quick"

	"cote/internal/bitset"
	"cote/internal/catalog"
)

// testCatalog builds a small three-table catalog used across the tests.
func testCatalog() *catalog.Catalog {
	b := catalog.NewBuilder("test")
	b.Table("a", 1000).Column("x", 100).Column("y", 50).Index("pk_a", true, "x")
	b.Table("b", 5000).Column("x", 100).Column("z", 500)
	b.Table("c", 200).Column("z", 100).Column("w", 10)
	return b.Build()
}

// chain builds a finalized A-B-C linear query.
func chain(t *testing.T) *Block {
	t.Helper()
	qb := NewBuilder("chain", testCatalog())
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.AddTable("c", "")
	qb.JoinEq("a", "x", "b", "x")
	qb.JoinEq("b", "z", "c", "z")
	blk, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func TestBuilderResolution(t *testing.T) {
	blk := chain(t)
	if blk.NumTables() != 3 {
		t.Fatalf("NumTables = %d", blk.NumTables())
	}
	if got := blk.Tables[1].Alias; got != "b" {
		t.Fatalf("alias = %q", got)
	}
	// Columns are contiguous per table.
	if blk.Tables[0].FirstCol != 0 || blk.Tables[1].FirstCol != 2 || blk.Tables[2].FirstCol != 4 {
		t.Fatal("FirstCol layout wrong")
	}
	if blk.Column(3).String() != "b.z" {
		t.Fatalf("Column(3) = %s", blk.Column(3))
	}
}

func TestBuilderErrors(t *testing.T) {
	cat := testCatalog()
	cases := []struct {
		name string
		run  func(qb *Builder)
	}{
		{"unknown table", func(qb *Builder) { qb.AddTable("nope", "") }},
		{"dup alias", func(qb *Builder) { qb.AddTable("a", "t"); qb.AddTable("b", "t") }},
		{"unknown column", func(qb *Builder) { qb.AddTable("a", ""); qb.Col("a", "nope") }},
		{"unknown alias", func(qb *Builder) { qb.AddTable("a", ""); qb.Col("zzz", "x") }},
		{"self join pred", func(qb *Builder) {
			qb.AddTable("a", "")
			qb.Join(qb.Col("a", "x"), qb.Col("a", "y"), Eq)
		}},
		{"bad selectivity", func(qb *Builder) {
			qb.AddTable("a", "")
			qb.Filter(qb.Col("a", "x"), Eq, 1.5)
		}},
		{"outer join range", func(qb *Builder) { qb.AddTable("a", ""); qb.LeftOuter(5) }},
		{"no tables", func(qb *Builder) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qb := NewBuilder("bad", cat)
			tc.run(qb)
			if _, err := qb.Build(); err == nil {
				t.Fatalf("%s: Build succeeded, want error", tc.name)
			}
		})
	}
}

func TestDefaultSelectivity(t *testing.T) {
	qb := NewBuilder("sel", testCatalog())
	qb.AddTable("a", "")
	qb.Filter(qb.Col("a", "x"), Eq, 0)  // 1/NDV = 1/100
	qb.Filter(qb.Col("a", "y"), Lt, 0)  // 1/3
	qb.Filter(qb.Col("a", "y"), Ne, 0)  // 0.9
	qb.Filter(qb.Col("a", "x"), Gt, .2) // explicit
	blk := qb.MustBuild()
	want := []float64{0.01, 1.0 / 3, 0.9, 0.2}
	for i, w := range want {
		if got := blk.LocalPreds[i].Selectivity; got != w {
			t.Errorf("pred %d selectivity = %v, want %v", i, got, w)
		}
	}
}

func TestTransitiveClosureAddsImpliedJoinPred(t *testing.T) {
	// a.x = b.x, b.x = c.z  =>  implied a.x = c.z, creating a cycle.
	qb := NewBuilder("tc", testCatalog())
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.AddTable("c", "")
	qb.JoinEq("a", "x", "b", "x")
	qb.Join(qb.Col("b", "x"), qb.Col("c", "z"), Eq)
	blk := qb.MustBuild()

	if len(blk.JoinPreds) != 3 {
		t.Fatalf("got %d join preds, want 3 (one implied)", len(blk.JoinPreds))
	}
	var implied *JoinPred
	for i := range blk.JoinPreds {
		if blk.JoinPreds[i].Implied {
			implied = &blk.JoinPreds[i]
		}
	}
	if implied == nil {
		t.Fatal("no implied predicate added")
	}
	lt, rt := blk.TableOf(implied.Left), blk.TableOf(implied.Right)
	if !(lt == 0 && rt == 2 || lt == 2 && rt == 0) {
		t.Fatalf("implied predicate between tables %d and %d, want 0 and 2", lt, rt)
	}
	// The closure turned the chain into a cycle: every pair now connected.
	if !blk.Connects(bitset.Of(0), bitset.Of(2)) {
		t.Fatal("a and c not connected after closure")
	}
}

func TestTransitiveClosureLocalPredicates(t *testing.T) {
	// a.x = b.x and a.x = const  =>  implied b.x = const.
	qb := NewBuilder("tcl", testCatalog())
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.JoinEq("a", "x", "b", "x")
	qb.Filter(qb.Col("a", "x"), Eq, 0.05)
	blk := qb.MustBuild()

	var found bool
	for _, lp := range blk.LocalPreds {
		if lp.Implied && blk.TableOf(lp.Col) == 1 && lp.Selectivity == 0.05 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no implied local predicate on b; preds: %+v", blk.LocalPreds)
	}
}

func TestTransitiveClosureNonEqExcluded(t *testing.T) {
	qb := NewBuilder("ne", testCatalog())
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.AddTable("c", "")
	qb.Join(qb.Col("a", "x"), qb.Col("b", "x"), Lt)
	qb.Join(qb.Col("b", "x"), qb.Col("c", "z"), Eq)
	blk := qb.MustBuild()
	if len(blk.JoinPreds) != 2 {
		t.Fatalf("closure crossed a non-equality predicate: %d preds", len(blk.JoinPreds))
	}
}

func TestJoinGraphHelpers(t *testing.T) {
	blk := chain(t)
	if got := blk.Neighbors(bitset.Of(1)); got != bitset.Of(0, 2) {
		t.Fatalf("Neighbors(b) = %v", got)
	}
	if got := blk.Neighbors(bitset.Of(0, 1)); got != bitset.Of(2) {
		t.Fatalf("Neighbors(ab) = %v", got)
	}
	if blk.Connects(bitset.Of(0), bitset.Of(2)) {
		t.Fatal("a-c connected in a chain without closure effects")
	}
	if !blk.IsConnected(bitset.Of(0, 1, 2)) || blk.IsConnected(bitset.Of(0, 2)) {
		t.Fatal("IsConnected wrong")
	}
	if got := len(blk.AppendPredsBetween(nil, bitset.Of(0), bitset.Of(1))); got != 1 {
		t.Fatalf("PredsBetween(a,b) = %d preds", got)
	}
	if got := len(blk.AppendPredsWithin(nil, bitset.Of(0, 1, 2))); got != 2 {
		t.Fatalf("PredsWithin(abc) = %d preds", got)
	}
	if got := len(blk.AppendPredsWithin(nil, bitset.Of(0, 2))); got != 0 {
		t.Fatalf("PredsWithin(ac) = %d preds", got)
	}
}

func TestColSetAndTableOf(t *testing.T) {
	blk := chain(t)
	cols := []ColID{blk.Tables[0].FirstCol, blk.Tables[2].FirstCol}
	if got := blk.ColSet(cols); got != bitset.Of(0, 2) {
		t.Fatalf("ColSet = %v", got)
	}
	if blk.TableOf(blk.Tables[1].FirstCol+1) != 1 {
		t.Fatal("TableOf wrong")
	}
}

func TestColumnPanicsOutOfRange(t *testing.T) {
	blk := chain(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Column(-1) did not panic")
		}
	}()
	blk.Column(NoCol)
}

func TestDerivedTables(t *testing.T) {
	cat := testCatalog()
	childB := NewBuilder("child", cat)
	childB.AddTable("c", "")
	childB.SelectCols(childB.Col("c", "z"), childB.Col("c", "w"))
	child := childB.MustBuild()

	qb := NewBuilder("parent", cat)
	qb.AddTable("a", "")
	dt := qb.AddDerived(child, "v", false)
	qb.Join(qb.Col("a", "x"), qb.Col("v", "z"), Eq)
	blk := qb.MustBuild()

	ref := blk.Tables[dt]
	if !ref.IsDerived() || ref.NumCols != 2 {
		t.Fatalf("derived ref wrong: %+v", ref)
	}
	if got := blk.Column(qb.Col("v", "w")).Col.NDV; got != 10 {
		t.Fatalf("derived NDV = %v, want inherited 10", got)
	}
	// Blocks() returns children first.
	bs := blk.Blocks()
	if len(bs) != 2 || bs[0] != child || bs[1] != blk {
		t.Fatalf("Blocks order wrong: %v", bs)
	}
}

func TestDoubleFinalizeRejected(t *testing.T) {
	blk := chain(t)
	if err := blk.Finalize(); err == nil {
		t.Fatal("second Finalize succeeded")
	}
}

func TestOuterJoinRecorded(t *testing.T) {
	qb := NewBuilder("oj", testCatalog())
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.JoinEq("a", "x", "b", "x")
	qb.LeftOuter(1, 0)
	blk := qb.MustBuild()
	if len(blk.OuterJoins) != 1 {
		t.Fatal("outer join not recorded")
	}
	oj := blk.OuterJoins[0]
	if oj.NullProducing != 1 || !oj.PredReq.Contains(0) {
		t.Fatalf("outer join = %+v", oj)
	}
}

func TestOuterJoinSelfRequireRejected(t *testing.T) {
	qb := NewBuilder("oj2", testCatalog())
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.JoinEq("a", "x", "b", "x")
	qb.LeftOuter(1, 1)
	if _, err := qb.Build(); err == nil {
		t.Fatal("outer join requiring its own table accepted")
	}
}

func TestEquivWithin(t *testing.T) {
	blk := chain(t) // a.x = b.x (cols 0,2), b.z = c.z (cols 3,4)
	ax, bx := ColID(0), ColID(2)
	bz, cz := ColID(3), ColID(4)

	all := blk.EquivWithin(blk.AllTables())
	if !all.Same(ax, bx) || !all.Same(bz, cz) || all.Same(ax, cz) {
		t.Fatal("full-set equivalence wrong")
	}
	// Predicate a.x = b.x is not applied within {b, c}.
	sub := blk.EquivWithin(bitset.Of(1, 2))
	if sub.Same(ax, bx) || !sub.Same(bz, cz) {
		t.Fatal("subset equivalence wrong")
	}
	if all.Rep(ax) != all.Rep(bx) {
		t.Fatal("Rep not canonical")
	}
}

// Equiv answers from the flattened parent array. For every table subset of
// a query whose equalities chain six columns into one class — deep enough
// that the forest is not flat before flatten() — Rep must be the union-find
// root and Same must agree with it.
func TestEquivRepsAreUnionFindRoots(t *testing.T) {
	cb := catalog.NewBuilder("eq")
	names := []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	for _, n := range names {
		cb.Table(n, 1000).Column("k", 100).Column("v", 10)
	}
	qb := NewBuilder("eq", cb.Build())
	for _, n := range names {
		qb.AddTable(n, "")
	}
	// Unions arrive leaf-to-root and root-to-leaf so some parents point at
	// non-roots until the flatten.
	for _, e := range [][2]int{{4, 5}, {2, 3}, {3, 4}, {0, 1}, {1, 2}} {
		qb.JoinEq(names[e[0]], "k", names[e[1]], "k")
	}
	qb.JoinEq("t0", "v", "t5", "v")
	blk := qb.MustBuild()

	for s := bitset.Set(1); s < 1<<len(names); s++ {
		uf := newUnionFind(make([]int32, len(blk.Columns)))
		for i := range blk.JoinPreds {
			p := &blk.JoinPreds[i]
			if p.Op == Eq && s.Contains(blk.TableOf(p.Left)) && s.Contains(blk.TableOf(p.Right)) {
				uf.union(int(p.Left), int(p.Right))
			}
		}
		eq := blk.EquivWithin(s)
		for a := range blk.Columns {
			if got, want := eq.Rep(ColID(a)), ColID(uf.find(a)); got != want {
				t.Fatalf("set %v: Rep(%d) = %d, union-find root %d", s, a, got, want)
			}
			for b := range blk.Columns {
				if got, want := eq.Same(ColID(a), ColID(b)), uf.find(a) == uf.find(b); got != want {
					t.Fatalf("set %v: Same(%d, %d) = %v, union-find says %v", s, a, b, got, want)
				}
			}
		}
	}
	all := blk.AllTables()
	if avg := testing.AllocsPerRun(20, func() { blk.EquivWithin(all) }); avg > 2 {
		t.Fatalf("EquivWithin = %.0f allocs, want at most the array and the Equiv", avg)
	}
}

func TestSelectDefaulted(t *testing.T) {
	qb := NewBuilder("sel", testCatalog())
	qb.AddTable("b", "")
	blk := qb.MustBuild()
	if len(blk.Select) != 1 || blk.Select[0] != blk.Tables[0].FirstCol {
		t.Fatalf("default select = %v", blk.Select)
	}
}

// Property: for random connected subsets of a chain query, IsConnected
// agrees with a brute-force reachability check, and Neighbors never returns
// members of the input set.
func TestQuickGraphProperties(t *testing.T) {
	blk := chain(t)
	f := func(raw uint8) bool {
		s := bitset.Set(raw & 0x7) // subsets of {0,1,2}
		if s.Empty() {
			return !blk.IsConnected(s)
		}
		if blk.Neighbors(s).Overlaps(s) {
			return false
		}
		// Brute force: chain 0-1-2 means connected iff contiguous.
		want := s == bitset.Of(0) || s == bitset.Of(1) || s == bitset.Of(2) ||
			s == bitset.Of(0, 1) || s == bitset.Of(1, 2) || s == bitset.Of(0, 1, 2)
		return blk.IsConnected(s) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transitive closure is idempotent in effect — every pair of
// columns in one equivalence class has exactly one (possibly implied)
// predicate, never duplicates.
func TestClosureNoDuplicateEdges(t *testing.T) {
	qb := NewBuilder("dup", testCatalog())
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.AddTable("c", "")
	qb.JoinEq("a", "x", "b", "x")
	qb.Join(qb.Col("b", "x"), qb.Col("c", "z"), Eq)
	qb.Join(qb.Col("a", "x"), qb.Col("c", "z"), Eq) // closure edge given explicitly
	blk := qb.MustBuild()

	seen := map[[2]ColID]int{}
	for _, p := range blk.JoinPreds {
		k := [2]ColID{p.Left, p.Right}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		seen[k]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("duplicate predicate %v (%d times)", k, n)
		}
	}
	if len(blk.JoinPreds) != 3 {
		t.Fatalf("%d preds, want exactly 3", len(blk.JoinPreds))
	}
}
