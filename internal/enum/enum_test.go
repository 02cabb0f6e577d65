package enum

import (
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/cost"
	"cote/internal/memo"
	"cote/internal/query"
)

// linearQuery builds a chain t0-t1-...-t{n-1}.
func linearQuery(tb testing.TB, n int) *query.Block {
	tb.Helper()
	cb := catalog.NewBuilder("lin")
	for i := 0; i < n; i++ {
		cb.Table(tname(i), 1000).Column("a", 100).Column("b", 100)
	}
	cat := cb.Build()
	qb := query.NewBuilder("lin", cat)
	for i := 0; i < n; i++ {
		qb.AddTable(tname(i), "")
	}
	for i := 0; i+1 < n; i++ {
		qb.JoinEq(tname(i), "b", tname(i+1), "a")
	}
	blk, err := qb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return blk
}

// starQuery builds a star with t0 as the center.
func starQuery(tb testing.TB, n int) *query.Block {
	tb.Helper()
	cb := catalog.NewBuilder("star")
	cb.Table(tname(0), 10_000)
	for i := 1; i < n; i++ {
		cb.Table(tname(i), 1000).Column("a", 100)
	}
	// Center needs one join column per satellite.
	cat := func() *catalog.Catalog {
		b := catalog.NewBuilder("star")
		tb0 := b.Table(tname(0), 10_000)
		for i := 1; i < n; i++ {
			tb0.Column(colname(i), 100)
		}
		for i := 1; i < n; i++ {
			b.Table(tname(i), 1000).Column("a", 100)
		}
		return b.Build()
	}()
	qb := query.NewBuilder("star", cat)
	for i := 0; i < n; i++ {
		qb.AddTable(tname(i), "")
	}
	for i := 1; i < n; i++ {
		qb.JoinEq(tname(0), colname(i), tname(i), "a")
	}
	blk, err := qb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return blk
}

func tname(i int) string   { return string(rune('a'+i)) + "t" }
func colname(i int) string { return "c" + string(rune('0'+i)) }

// run enumerates blk with the options and returns stats and the memo.
func run(tb testing.TB, blk *query.Block, opts Options) (Stats, *memo.Memo) {
	tb.Helper()
	mem := memo.New(blk.NumTables())
	card := cost.NewEstimator(blk, cost.Simple)
	st, err := New(blk, mem, card, opts).Run(Hooks{})
	if err != nil {
		tb.Fatal(err)
	}
	return st, mem
}

// ono returns the closed-form join counts from Ono & Lohman for linear and
// star queries under full bushy enumeration without Cartesian products.
func onoLinear(n int) int { return (n*n*n - n) / 6 }
func onoStar(n int) int {
	if n < 2 {
		return 0
	}
	return (n - 1) << (n - 2)
}

func TestLinearJoinCountsMatchClosedForm(t *testing.T) {
	for n := 2; n <= 10; n++ {
		blk := linearQuery(t, n)
		st, _ := run(t, blk, Options{Cartesian: CartesianNever})
		if st.Pairs != onoLinear(n) {
			t.Errorf("linear n=%d: %d pairs, closed form %d", n, st.Pairs, onoLinear(n))
		}
		// Every pair is fully reorderable: ordered joins = 2x pairs.
		if st.Joins != 2*st.Pairs {
			t.Errorf("linear n=%d: %d joins, want %d", n, st.Joins, 2*st.Pairs)
		}
	}
}

func TestStarJoinCountsMatchClosedForm(t *testing.T) {
	for n := 2; n <= 10; n++ {
		blk := starQuery(t, n)
		st, _ := run(t, blk, Options{Cartesian: CartesianNever})
		if st.Pairs != onoStar(n) {
			t.Errorf("star n=%d: %d pairs, closed form %d", n, st.Pairs, onoStar(n))
		}
	}
}

func TestLinearMemoEntries(t *testing.T) {
	// A chain of n has n(n+1)/2 connected intervals = MEMO entries.
	n := 8
	blk := linearQuery(t, n)
	st, mem := run(t, blk, Options{Cartesian: CartesianNever})
	want := n * (n + 1) / 2
	if mem.NumEntries() != want || st.Entries != want {
		t.Fatalf("entries = %d (stats %d), want %d", mem.NumEntries(), st.Entries, want)
	}
	// Final entry exists and covers all tables.
	if mem.Entry(blk.AllTables()) == nil {
		t.Fatal("no entry for the full table set")
	}
}

func TestLeftDeepReducesSearch(t *testing.T) {
	blk := linearQuery(t, 8)
	bushy, _ := run(t, blk, Options{Cartesian: CartesianNever})
	ld, _ := run(t, blk, Options{Shape: LeftDeep, Cartesian: CartesianNever})
	zz, _ := run(t, blk, Options{Shape: ZigZag, Cartesian: CartesianNever})
	if !(ld.Joins < zz.Joins && zz.Joins < bushy.Joins) {
		t.Fatalf("join counts not ordered: leftdeep %d, zigzag %d, bushy %d",
			ld.Joins, zz.Joins, bushy.Joins)
	}
	// Left-deep joins on a chain: each join has a single-table inner.
	if ld.Joins == 0 {
		t.Fatal("left-deep enumeration found no joins")
	}
}

func TestCompositeInnerLimit(t *testing.T) {
	blk := linearQuery(t, 8)
	full, _ := run(t, blk, Options{Cartesian: CartesianNever})
	lim2, _ := run(t, blk, Options{CompositeInnerLimit: 2, Cartesian: CartesianNever})
	lim1, _ := run(t, blk, Options{CompositeInnerLimit: 1, Cartesian: CartesianNever})
	if !(lim1.Joins < lim2.Joins && lim2.Joins < full.Joins) {
		t.Fatalf("composite inner limit not monotone: %d, %d, %d", lim1.Joins, lim2.Joins, full.Joins)
	}
	// Limit 1 equals left-deep ordered-join count on this query.
	ld, _ := run(t, blk, Options{Shape: LeftDeep, Cartesian: CartesianNever})
	if lim1.Joins != ld.Joins {
		t.Fatalf("inner limit 1 (%d joins) != left-deep (%d joins)", lim1.Joins, ld.Joins)
	}
}

func TestDisconnectedFailsWithoutCartesian(t *testing.T) {
	cb := catalog.NewBuilder("d")
	cb.Table("r", 1000).Column("a", 10)
	cb.Table("s", 1000).Column("a", 10)
	cat := cb.Build()
	qb := query.NewBuilder("d", cat)
	qb.AddTable("r", "")
	qb.AddTable("s", "")
	blk := qb.MustBuild()

	mem := memo.New(2)
	card := cost.NewEstimator(blk, cost.Simple)
	if _, err := New(blk, mem, card, Options{Cartesian: CartesianNever}).Run(Hooks{}); err == nil {
		t.Fatal("disconnected query enumerated without Cartesian products")
	}
	// CartesianAlways joins it.
	mem = memo.New(2)
	st, err := New(blk, mem, card, Options{Cartesian: CartesianAlways}).Run(Hooks{})
	if err != nil || st.Pairs != 1 {
		t.Fatalf("CartesianAlways: pairs=%d err=%v", st.Pairs, err)
	}
}

func TestCartesianCardOneHeuristic(t *testing.T) {
	// r and s are disconnected; r filtered to ~1 row allows the product.
	build := func(sel float64) *query.Block {
		cb := catalog.NewBuilder("d")
		cb.Table("r", 1000).Column("a", 1000)
		cb.Table("s", 1000).Column("a", 10)
		cb.Table("u", 1000).Column("a", 10)
		cat := cb.Build()
		qb := query.NewBuilder("d", cat)
		qb.AddTable("r", "")
		qb.AddTable("s", "")
		qb.AddTable("u", "")
		qb.JoinEq("s", "a", "u", "a")
		qb.Filter(qb.Col("r", "a"), query.Eq, sel)
		return qb.MustBuild()
	}

	// Selective filter: card(r) = 1 -> product allowed, query compiles.
	blk := build(0.001)
	st, _ := run(t, blk, Options{Cartesian: CartesianCardOne})
	if st.Pairs == 0 {
		t.Fatal("card-one heuristic did not enable the product")
	}

	// Loose filter: card(r) = 500 -> no product, query cannot complete.
	blk = build(0.5)
	mem := memo.New(3)
	card := cost.NewEstimator(blk, cost.Simple)
	if _, err := New(blk, mem, card, Options{Cartesian: CartesianCardOne}).Run(Hooks{}); err == nil {
		t.Fatal("card-one heuristic allowed a product between large inputs")
	}
}

func TestCartesianHeuristicModeSensitivity(t *testing.T) {
	// The same query enumerates different join sets under the full and the
	// simple cardinality models — the error source the paper documents for
	// parallel HSJN estimates. pk.id has a unique index but understated NDV
	// statistics: the key-aware full model estimates card{pk,fk} = 10*100/
	// 1000 = 1, under the Cartesian threshold, while the simple model gets
	// 10*100/100 = 10 and never allows the product with y.
	cb := catalog.NewBuilder("ms")
	cb.Table("pk", 1_000).Column("id", 100).Column("q", 100).Column("xa", 50).
		Index("pk_pk", true, "id")
	cb.Table("fk", 1_000).Column("ref", 100).Column("w", 10)
	cb.Table("x", 500).Column("a", 10).Column("pa", 50)
	cb.Table("y", 500).Column("a", 10)
	cat := cb.Build()
	qb := query.NewBuilder("ms", cat)
	qb.AddTable("pk", "")
	qb.AddTable("fk", "")
	qb.AddTable("x", "")
	qb.AddTable("y", "")
	qb.JoinEq("fk", "ref", "pk", "id")
	qb.JoinEq("pk", "xa", "x", "pa") // keeps the graph connected end to end
	qb.JoinEq("x", "a", "y", "a")
	qb.FilterEq("pk", "q") // fc(pk) = 10 in both modes
	qb.FilterEq("fk", "w") // fc(fk) = 100 in both modes
	blk := qb.MustBuild()

	joins := func(mode cost.Mode) int {
		mem := memo.New(blk.NumTables())
		card := cost.NewEstimator(blk, mode)
		st, err := New(blk, mem, card, Options{Cartesian: CartesianCardOne}).Run(Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Joins
	}
	full, simple := joins(cost.Full), joins(cost.Simple)
	if full <= simple {
		t.Fatalf("full mode (%d joins) should enumerate more than simple mode (%d) via the card-one product", full, simple)
	}
}

func TestOuterJoinRestrictsEnumeration(t *testing.T) {
	// a JOIN b, b LEFT OUTER JOIN c: c may not pair with a alone and {c}
	// cannot be an outer.
	cb := catalog.NewBuilder("oj")
	cb.Table("a", 1000).Column("x", 10)
	cb.Table("b", 1000).Column("x", 10).Column("y", 10)
	cb.Table("c", 1000).Column("y", 10).Column("x", 10)
	cat := cb.Build()
	qb := query.NewBuilder("oj", cat)
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.AddTable("c", "")
	qb.JoinEq("a", "x", "b", "x")
	qb.JoinEq("b", "y", "c", "y")
	qb.JoinEq("a", "x", "c", "x") // would connect a-c directly
	qb.LeftOuter(2, 1)            // c null-producing, ON references b
	blk := qb.MustBuild()

	var sawInvalid bool
	var cOuter bool
	mem := memo.New(3)
	card := cost.NewEstimator(blk, cost.Simple)
	_, err := New(blk, mem, card, Options{Cartesian: CartesianNever}).Run(Hooks{
		Join: func(outer, inner, result *memo.Entry) {
			if result.Tables == bitset.Of(0, 2) {
				sawInvalid = true
			}
			if outer.Tables == bitset.Of(2) {
				cOuter = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawInvalid {
		t.Fatal("enumerated {a,c}, which splits the outer join")
	}
	if cOuter {
		t.Fatal("null-producing table served as an outer")
	}
	if mem.Entry(bitset.Of(0, 2)) != nil {
		t.Fatal("MEMO entry created for invalid set {a,c}")
	}
	// The full join still completes.
	if mem.Entry(blk.AllTables()) == nil {
		t.Fatal("query did not complete")
	}
}

func TestHooksInvocation(t *testing.T) {
	blk := linearQuery(t, 4)
	mem := memo.New(4)
	card := cost.NewEstimator(blk, cost.Simple)
	inits, joins, completes := 0, 0, 0
	var lastResult bitset.Set
	st, err := New(blk, mem, card, Options{Cartesian: CartesianNever}).Run(Hooks{
		Init: func(e *memo.Entry) {
			inits++
			if !e.Equiv.Same(0, 0) || e.Card <= 0 {
				t.Error("Init called before logical properties were cached")
			}
		},
		Complete: func(e *memo.Entry) { completes++ },
		Join: func(outer, inner, result *memo.Entry) {
			joins++
			if outer.Tables.Overlaps(inner.Tables) {
				t.Error("overlapping join inputs")
			}
			if outer.Tables.Union(inner.Tables) != result.Tables {
				t.Error("result tables != union of inputs")
			}
			lastResult = result.Tables
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inits != mem.NumEntries() {
		t.Fatalf("Init called %d times for %d entries", inits, mem.NumEntries())
	}
	if completes != mem.NumEntries() {
		t.Fatalf("Complete called %d times for %d entries", completes, mem.NumEntries())
	}
	if joins != st.Joins {
		t.Fatalf("Join called %d times, stats say %d", joins, st.Joins)
	}
	if lastResult != blk.AllTables() {
		t.Fatalf("last join result = %v, want full set", lastResult)
	}
}

func TestDeterministicEnumeration(t *testing.T) {
	blk := starQuery(t, 7)
	var seq1, seq2 []bitset.Set
	collect := func(dst *[]bitset.Set) Hooks {
		return Hooks{Join: func(o, i, r *memo.Entry) {
			*dst = append(*dst, o.Tables, i.Tables)
		}}
	}
	mem := memo.New(7)
	card := cost.NewEstimator(blk, cost.Simple)
	if _, err := New(blk, mem, card, Options{}).Run(collect(&seq1)); err != nil {
		t.Fatal(err)
	}
	mem = memo.New(7)
	if _, err := New(blk, mem, card, Options{}).Run(collect(&seq2)); err != nil {
		t.Fatal(err)
	}
	if len(seq1) != len(seq2) {
		t.Fatalf("lengths differ: %d vs %d", len(seq1), len(seq2))
	}
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("sequence diverges at %d: %v vs %v", i, seq1[i], seq2[i])
		}
	}
}

func TestShapeAndPolicyStrings(t *testing.T) {
	for _, s := range []Shape{Bushy, ZigZag, LeftDeep} {
		if s.String() == "" {
			t.Fatal("empty shape name")
		}
	}
}

func BenchmarkEnumerateLinear10(b *testing.B) {
	blk := linearQuery(b, 10)
	card := cost.NewEstimator(blk, cost.Simple)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem := memo.New(10)
		if _, err := New(blk, mem, card, Options{Cartesian: CartesianNever}).Run(Hooks{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerateStar10(b *testing.B) {
	blk := starQuery(b, 10)
	card := cost.NewEstimator(blk, cost.Simple)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem := memo.New(10)
		if _, err := New(blk, mem, card, Options{Cartesian: CartesianNever}).Run(Hooks{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEnumerate times Run alone under the default options (bushy, card-one
// Cartesian heuristic, no inner limit) on one MEMO Reset per iteration, as
// the estimator's pool does, and reports the scan counters next to ns/op:
// the enumeration-only baseline for connected-subgraph emission to beat.
func benchEnumerate(b *testing.B, blk *query.Block) {
	card := cost.NewEstimator(blk, cost.Simple)
	mem := memo.New(blk.NumTables())
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.Reset(blk.NumTables())
		var err error
		if st, err = New(blk, mem, card, Options{}).Run(Hooks{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.CandidatesVisited), "visited/op")
	b.ReportMetric(float64(st.CandidatesSkipped), "skipped/op")
	b.ReportMetric(float64(st.Pairs), "pairs/op")
}

func BenchmarkEnumerateChain24(b *testing.B) { benchEnumerate(b, linearQuery(b, 24)) }

func BenchmarkEnumerateStar13(b *testing.B) { benchEnumerate(b, starQuery(b, 13)) }

func BenchmarkEnumerateClique10(b *testing.B) {
	g := diffGraph{name: "clique10", n: 10}
	for i := 0; i < g.n; i++ {
		for j := i + 1; j < g.n; j++ {
			g.edges = append(g.edges, [2]int{i, j})
		}
	}
	benchEnumerate(b, buildDiffBlock(b, g))
}
