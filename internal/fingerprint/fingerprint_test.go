package fingerprint_test

import (
	"fmt"
	"reflect"
	"testing"

	"cote/internal/catalog"
	"cote/internal/core"
	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/query"
	"cote/internal/sqlparser"
	"cote/internal/workload"
)

// permuteBlock rebuilds blk with its FROM list reordered by perm (perm[p] =
// original table index at new position p), every alias renamed, every join
// predicate's endpoints swapped (with the operator mirrored), and implied
// predicates dropped so Finalize re-derives them. The result is a maximally
// "respelled" twin: structurally identical, syntactically unrecognizable.
func permuteBlock(t *testing.T, blk *query.Block, perm []int) *query.Block {
	t.Helper()
	qb := query.NewBuilder(blk.Name+"_perm", blk.Catalog)
	newIdx := make([]int, len(blk.Tables))
	for p, o := range perm {
		ref := blk.Tables[o]
		alias := fmt.Sprintf("pt%d", p)
		if ref.IsDerived() {
			child := ref.Derived
			childPerm := reversed(len(child.Tables))
			newIdx[o] = qb.AddDerived(permuteBlock(t, child, childPerm), alias, ref.Correlated)
		} else {
			newIdx[o] = qb.AddTable(ref.Table.Name, alias)
		}
	}
	mapCol := func(id query.ColID) query.ColID {
		ref := blk.Column(id).Ref
		return qb.ColByTableIndex(newIdx[ref.Index], int(id-ref.FirstCol))
	}
	for _, jp := range blk.JoinPreds {
		if jp.Implied {
			continue
		}
		qb.Join(mapCol(jp.Right), mapCol(jp.Left), flip(jp.Op))
	}
	for _, lp := range blk.LocalPreds {
		if lp.Implied {
			continue
		}
		if lp.Expensive {
			qb.ExpensiveFilter(mapCol(lp.Col), lp.Selectivity)
		} else {
			qb.Filter(mapCol(lp.Col), lp.Op, lp.Selectivity)
		}
	}
	for _, oj := range blk.OuterJoins {
		var req []int
		for m := oj.PredReq.Next(0); m >= 0; m = oj.PredReq.Next(m + 1) {
			req = append(req, newIdx[m])
		}
		qb.LeftOuter(newIdx[oj.NullProducing], req...)
	}
	qb.GroupBy(mapCols(mapCol, blk.GroupBy)...)
	qb.OrderBy(mapCols(mapCol, blk.OrderBy)...)
	qb.SelectCols(mapCols(mapCol, blk.Select)...)
	qb.Aggregates(blk.NumAggs)
	qb.FetchFirst(blk.FirstN)
	out, err := qb.Build()
	if err != nil {
		t.Fatalf("permute %s: %v", blk.Name, err)
	}
	return out
}

func mapCols(f func(query.ColID) query.ColID, cols []query.ColID) []query.ColID {
	out := make([]query.ColID, len(cols))
	for i, c := range cols {
		out[i] = f(c)
	}
	return out
}

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

func reversed(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

func rotated(n, by int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i + by) % n
	}
	return out
}

// allWorkloads returns every workload shape in both the serial and the
// 4-node parallel variant — the full shape × size sweep of the paper's
// experiments.
func allWorkloads() []*workload.Workload {
	var out []*workload.Workload
	for _, nodes := range []int{1, 4} {
		out = append(out,
			workload.Linear(nodes),
			workload.Star(nodes),
			workload.Random(7, 8, 10, nodes),
			workload.Real1(nodes),
			workload.Real2(nodes),
			workload.TPCH(nodes),
		)
	}
	return out
}

// TestInvariantUnderPermutation is the heart of the invariance suite: for
// every query of every workload shape × size, a fully respelled twin
// (reversed and rotated FROM order, fresh aliases, swapped predicate
// endpoints) fingerprints identically.
func TestInvariantUnderPermutation(t *testing.T) {
	for _, w := range allWorkloads() {
		for _, q := range w.Queries {
			fp := fingerprint.Of(q.Block)
			if fp.IsZero() {
				t.Fatalf("%s/%s: zero fingerprint", w.Name, q.Name)
			}
			n := len(q.Block.Tables)
			for name, perm := range map[string][]int{"reversed": reversed(n), "rotated": rotated(n, n/2)} {
				got := fingerprint.Of(permuteBlock(t, q.Block, perm))
				if got != fp {
					t.Errorf("%s/%s: %s permutation changed fingerprint: %s vs %s",
						w.Name, q.Name, name, fp, got)
				}
			}
		}
	}
}

// TestPlanCountsInvariantUnderPermutation pins the property the caches rely
// on: fingerprint-equal blocks estimate to identical plan counts, joins and
// pairs at every level *when estimated through their canonical rebuilds*
// (raw blocks wobble sub-percent under renumbering — first-join-only
// property propagation follows the bitset numbering — which is exactly why
// the caches estimate canonical blocks). Without this a fingerprint hit
// could serve wrong numbers.
func TestPlanCountsInvariantUnderPermutation(t *testing.T) {
	levels := []opt.Level{opt.LevelMediumLeftDeep, opt.LevelMediumZigZag, opt.LevelHighInner2, opt.LevelHigh}
	for _, w := range allWorkloads() {
		for _, q := range w.Queries {
			twin := permuteBlock(t, q.Block, reversed(len(q.Block.Tables)))
			ca, fpA, err := fingerprint.Canonical(q.Block)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, q.Name, err)
			}
			cb, fpB, err := fingerprint.Canonical(twin)
			if err != nil {
				t.Fatalf("%s/%s twin: %v", w.Name, q.Name, err)
			}
			if fpA != fpB {
				t.Fatalf("%s/%s: twin fingerprint differs", w.Name, q.Name)
			}
			for _, lv := range levels {
				a, err := core.EstimatePlans(ca, core.Options{Level: lv})
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, q.Name, err)
				}
				b, err := core.EstimatePlans(cb, core.Options{Level: lv})
				if err != nil {
					t.Fatalf("%s/%s twin: %v", w.Name, q.Name, err)
				}
				if a.Counts != b.Counts || a.Joins != b.Joins || a.Pairs != b.Pairs {
					t.Errorf("%s/%s level %v: canonical counts diverge under permutation: %v/%d/%d vs %v/%d/%d",
						w.Name, q.Name, lv, a.Counts, a.Joins, a.Pairs, b.Counts, b.Joins, b.Pairs)
				}
			}
		}
	}
}

// TestCanonicalTracksRaw bounds the canonicalization wobble: the canonical
// rebuild's counts stay within 10% of the raw block's at the paper's level.
// The wobble is enumeration-order noise — cardinalities accumulate in
// numbering order, so the card-one Cartesian threshold can tip differently —
// and even two raw spellings of the same query differ by it; 10% keeps it
// well inside the estimator's own error band.
func TestCanonicalTracksRaw(t *testing.T) {
	for _, w := range allWorkloads() {
		for _, q := range w.Queries {
			cb, _, err := fingerprint.Canonical(q.Block)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, q.Name, err)
			}
			raw, err := core.EstimatePlans(q.Block, core.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, q.Name, err)
			}
			canon, err := core.EstimatePlans(cb, core.Options{})
			if err != nil {
				t.Fatalf("%s/%s canonical: %v", w.Name, q.Name, err)
			}
			rt, ct := float64(raw.Counts.Total()), float64(canon.Counts.Total())
			if rt > 0 && (ct < 0.9*rt || ct > 1.1*rt) {
				t.Errorf("%s/%s: canonical total %v strays beyond 10%% of raw %v", w.Name, q.Name, ct, rt)
			}
		}
	}
}

// TestInvariantUnderSQLRespelling exercises the parser path: alias renames,
// literal changes, whitespace, permuted FROM and WHERE clause order.
func TestInvariantUnderSQLRespelling(t *testing.T) {
	cat := catalog.TPCH(1, 1)
	variants := []string{
		`SELECT n_name FROM customer, orders, lineitem, supplier, nation, region
		 WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey
		   AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		   AND c_mktsegment = 'BUILDING'
		 ORDER BY n_name`,
		// Permuted FROM and WHERE order, different aliases, different
		// literal, gratuitous whitespace.
		`SELECT na.n_name
		   FROM region re, nation na, supplier su, lineitem li, orders orr, customer cu
		  WHERE na.n_regionkey = re.r_regionkey
		    AND cu.c_mktsegment = 'AUTOMOBILE'
		    AND orr.o_orderkey = li.l_orderkey
		    AND li.l_suppkey  =  su.s_suppkey
		    AND su.s_nationkey = na.n_nationkey
		    AND cu.c_custkey = orr.o_custkey
		  ORDER BY na.n_name`,
	}
	var fps []fingerprint.FP
	for i, sql := range variants {
		blk, err := sqlparser.Parse(sql, cat)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		fps = append(fps, fingerprint.Of(blk))
	}
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			t.Errorf("variant %d fingerprint %s differs from variant 0 %s", i, fps[i], fps[0])
		}
	}
}

// TestDistinguishesStructure checks the collision side: every structural
// edit that changes what the enumerator would do must change the
// fingerprint. All variants must be pairwise distinct.
func TestDistinguishesStructure(t *testing.T) {
	cat := catalog.Warehouse1(1)
	tables := cat.TableNames()[:3]
	base := func() *query.Builder {
		qb := query.NewBuilder("d", cat)
		for i, name := range tables {
			qb.AddTable(name, fmt.Sprintf("t%d", i))
		}
		return qb
	}
	join := func(qb *query.Builder, a, b int) {
		qb.Join(qb.ColByTableIndex(a, 0), qb.ColByTableIndex(b, 0), query.Eq)
	}
	variants := map[string]*query.Block{}
	build := func(name string, f func(*query.Builder)) {
		qb := base()
		join(qb, 0, 1)
		join(qb, 1, 2)
		f(qb)
		blk, err := qb.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		variants[name] = blk
	}
	build("chain", func(qb *query.Builder) {})
	build("added_edge", func(qb *query.Builder) { join(qb, 0, 2) })
	build("range_edge", func(qb *query.Builder) {
		qb.Join(qb.ColByTableIndex(0, 1), qb.ColByTableIndex(2, 1), query.Lt)
	})
	build("local_pred", func(qb *query.Builder) {
		qb.Filter(qb.ColByTableIndex(0, 1), query.Eq, 0.01)
	})
	build("local_pred_sel", func(qb *query.Builder) {
		qb.Filter(qb.ColByTableIndex(0, 1), query.Eq, 0.5)
	})
	build("expensive_pred", func(qb *query.Builder) {
		qb.ExpensiveFilter(qb.ColByTableIndex(0, 1), 0.01)
	})
	build("outer_0_nullproduces_1", func(qb *query.Builder) { qb.LeftOuter(1, 0) })
	build("outer_flipped", func(qb *query.Builder) { qb.LeftOuter(0, 1) })
	build("order_by", func(qb *query.Builder) { qb.OrderBy(qb.ColByTableIndex(1, 0)) })
	build("order_by_other_col", func(qb *query.Builder) { qb.OrderBy(qb.ColByTableIndex(1, 1)) })
	build("group_by", func(qb *query.Builder) { qb.GroupBy(qb.ColByTableIndex(1, 0)) })
	build("fetch_first", func(qb *query.Builder) { qb.FetchFirst(10) })
	build("aggregates", func(qb *query.Builder) { qb.Aggregates(2) })

	// A different third table: same graph shape, different statistics.
	{
		qb := query.NewBuilder("d", cat)
		qb.AddTable(tables[0], "t0")
		qb.AddTable(tables[1], "t1")
		qb.AddTable(cat.TableNames()[3], "t2")
		join(qb, 0, 1)
		join(qb, 1, 2)
		blk, err := qb.Build()
		if err != nil {
			t.Fatal(err)
		}
		variants["swapped_table"] = blk
	}

	fps := map[string]fingerprint.FP{}
	for name, blk := range variants {
		fps[name] = fingerprint.Of(blk)
	}
	names := make([]string, 0, len(fps))
	for name := range fps {
		names = append(names, name)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if fps[names[i]] == fps[names[j]] {
				t.Errorf("variants %q and %q collide on %s", names[i], names[j], fps[names[i]])
			}
		}
	}
}

// TestSerialVsParallelCatalogsDiffer pins that the same query shape over
// the serial and the partitioned variant of a schema fingerprints
// differently — partitioning keys are structural (they seed partition
// properties).
func TestSerialVsParallelCatalogsDiffer(t *testing.T) {
	q1 := workload.Star(1).Queries[0]
	q4 := workload.Star(4).Queries[0]
	if fingerprint.Of(q1.Block) == fingerprint.Of(q4.Block) {
		t.Error("serial and 4-node partitioned star query share a fingerprint")
	}
}

// TestIdenticalSchemasShare pins the cross-catalog sharing property the
// service cache exploits: the same query over two separately built but
// identical catalogs fingerprints identically (names don't matter, stats
// do).
func TestIdenticalSchemasShare(t *testing.T) {
	mk := func(name string) *catalog.Catalog {
		b := catalog.NewBuilder(name)
		b.Table("a", 1000)
		b.Column("x", 100)
		b.Column("y", 10)
		b.Table("b", 500)
		b.Column("x", 100)
		return b.Build()
	}
	parse := func(cat *catalog.Catalog) *query.Block {
		return sqlparser.MustParse(`SELECT a.y FROM a, b WHERE a.x = b.x`, cat)
	}
	if fingerprint.Of(parse(mk("one"))) != fingerprint.Of(parse(mk("two"))) {
		t.Error("identical schemas under different catalog names fingerprint differently")
	}
}

// TestDeterministicAcrossRebuilds guards against map-iteration order leaking
// into the fingerprint (Finalize appends implied predicates in map order).
func TestDeterministicAcrossRebuilds(t *testing.T) {
	cat := catalog.TPCH(1, 1)
	sql := `SELECT c_name FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_custkey = l_orderkey AND c_custkey = l_orderkey`
	want := fingerprint.Of(sqlparser.MustParse(sql, cat))
	for i := 0; i < 20; i++ {
		if got := fingerprint.Of(sqlparser.MustParse(sql, cat)); got != want {
			t.Fatalf("rebuild %d: fingerprint %s != %s", i, got, want)
		}
	}
}

// TestAnalyzeOnceMatchesOfAndCanonical pins the contract the serving
// pipeline relies on when it analyzes a statement once: the analysis carries
// Of's fingerprint, rebuilds Canonical's block, and doing both from one
// analysis allocates no more than calling Of and Canonical separately. The
// analysis itself allocates only for nested blocks (their analyses), so Of
// of a single block allocates nothing.
func TestAnalyzeOnceMatchesOfAndCanonical(t *testing.T) {
	for _, w := range allWorkloads() {
		for _, q := range w.Queries {
			a := fingerprint.Analyze(q.Block)
			if fp := fingerprint.Of(q.Block); a.FP != fp {
				t.Fatalf("%s/%s: Analyze FP %s, Of %s", w.Name, q.Name, a.FP, fp)
			}
			got, err := a.Canonical()
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, q.Name, err)
			}
			want, fp, err := fingerprint.Canonical(q.Block)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, q.Name, err)
			}
			if fp != a.FP || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: Analysis.Canonical differs from Canonical", w.Name, q.Name)
			}

			once := testing.AllocsPerRun(5, func() {
				a := fingerprint.Analyze(q.Block)
				_, _ = a.Canonical()
			})
			of := testing.AllocsPerRun(5, func() { fingerprint.Of(q.Block) })
			twice := of + testing.AllocsPerRun(5, func() { _, _, _ = fingerprint.Canonical(q.Block) })
			if once > twice {
				t.Errorf("%s/%s: Analyze+Canonical() %v allocs, Of+Canonical %v", w.Name, q.Name, once, twice)
			}
			if len(q.Block.Blocks()) == 1 && of != 0 {
				t.Errorf("%s/%s: Of = %v allocs, want 0", w.Name, q.Name, of)
			}
		}
	}
}
