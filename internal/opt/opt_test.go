package opt

import (
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/cost"
	"cote/internal/memo"
	"cote/internal/props"
	"cote/internal/query"
)

// starBlock builds a star query: center joined to n-1 satellites, preds
// join predicates per edge, plus optional ORDER BY / GROUP BY columns.
func starBlock(tb testing.TB, n, preds, orderby, groupby int, nodes int) *query.Block {
	tb.Helper()
	cb := catalog.NewBuilder("star")
	ct := cb.Table("center", 1_000_000)
	for s := 1; s < n; s++ {
		for p := 0; p < preds; p++ {
			ct.Column(colName(s, p), 1_000)
		}
	}
	ct.Column("m1", 500).Column("m2", 500).Column("m3", 500)
	ct.Index("pk_center", true, colName(1, 0))
	if nodes > 1 {
		ct.Partition(nodes, colName(1, 0))
	}
	for s := 1; s < n; s++ {
		st := cb.Table(satName(s), 10_000)
		for p := 0; p < preds; p++ {
			st.Column(colName(0, p), 1_000)
		}
		st.Column("d1", 100).Column("d2", 100)
		st.Index("ix_"+satName(s), false, colName(0, 0))
		if nodes > 1 {
			// Partition satellites on their last join column so that
			// multi-predicate edges expose several co-location choices.
			st.Partition(nodes, colName(0, preds-1))
		}
	}
	cat := cb.Build()

	qb := query.NewBuilder("star", cat)
	qb.AddTable("center", "")
	for s := 1; s < n; s++ {
		qb.AddTable(satName(s), "")
	}
	for s := 1; s < n; s++ {
		for p := 0; p < preds; p++ {
			qb.JoinEq("center", colName(s, p), satName(s), colName(0, p))
		}
	}
	var ob, gb []query.ColID
	for i := 0; i < orderby && i < 3; i++ {
		ob = append(ob, qb.Col("center", "m"+string(rune('1'+i))))
	}
	for i := 0; i < groupby && i < 2; i++ {
		gb = append(gb, qb.Col(satName(1), "d"+string(rune('1'+i))))
	}
	qb.OrderBy(ob...)
	qb.GroupBy(gb...)
	blk, err := qb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return blk
}

func colName(s, p int) string { return "j" + itoa(s) + "_" + itoa(p) }
func satName(s int) string    { return "sat" + itoa(s) }
func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestOptimizeStarSerial(t *testing.T) {
	blk := starBlock(t, 6, 1, 0, 0, 1)
	res, err := Optimize(blk, Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Cost <= 0 || res.Plan.Tables != blk.AllTables() {
		t.Fatalf("bad final plan: %+v", res.Plan)
	}
	ordered, pairs := res.TotalJoins()
	if wantPairs := 5 << 4; pairs != wantPairs { // (n-1)*2^(n-2)
		t.Fatalf("pairs = %d, want %d", pairs, wantPairs)
	}
	c := res.TotalCounters()
	// Every ordered equality join generates exactly one HSJN plan in serial
	// mode — the paper's exactness result for hash joins.
	if c.Generated[props.HSJN] != ordered {
		t.Fatalf("HSJN generated = %d, ordered joins = %d", c.Generated[props.HSJN], ordered)
	}
	// NLJN generates at least one plan per ordered join.
	if c.Generated[props.NLJN] < ordered {
		t.Fatalf("NLJN generated = %d < joins %d", c.Generated[props.NLJN], ordered)
	}
	if c.Generated[props.MGJN] < ordered {
		t.Fatalf("MGJN generated = %d < joins %d", c.Generated[props.MGJN], ordered)
	}
}

func TestOrderByIncreasesPlansNotJoins(t *testing.T) {
	// The Figure 3 effect: adding ORDER BY keeps the join graph (and join
	// count) fixed but increases the number of generated plans.
	plain := starBlock(t, 6, 1, 0, 0, 1)
	withOB := starBlock(t, 6, 1, 2, 0, 1)
	r1, err := Optimize(plain, Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(withOB, Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := r1.TotalJoins()
	j2, _ := r2.TotalJoins()
	if j1 != j2 {
		t.Fatalf("join counts differ: %d vs %d", j1, j2)
	}
	c1, c2 := r1.TotalCounters(), r2.TotalCounters()
	if c2.TotalGenerated() <= c1.TotalGenerated() {
		t.Fatalf("ORDER BY did not increase generated plans: %d vs %d",
			c1.TotalGenerated(), c2.TotalGenerated())
	}
}

func TestMorePredicatesMorePlans(t *testing.T) {
	// Within a star batch, extra join predicates per edge add interesting
	// orders and thus NLJN/MGJN plans, while HSJN counts stay put — the
	// within-batch variation of Figures 5(a)-(c).
	r1, err := Optimize(starBlock(t, 6, 1, 0, 0, 1), Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Optimize(starBlock(t, 6, 3, 0, 0, 1), Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	c1, c3 := r1.TotalCounters(), r3.TotalCounters()
	if c1.Generated[props.HSJN] != c3.Generated[props.HSJN] {
		t.Fatalf("HSJN counts differ across batch: %d vs %d",
			c1.Generated[props.HSJN], c3.Generated[props.HSJN])
	}
	if c3.Generated[props.MGJN] <= c1.Generated[props.MGJN] {
		t.Fatalf("MGJN did not grow with predicates: %d vs %d",
			c1.Generated[props.MGJN], c3.Generated[props.MGJN])
	}
}

func TestDPBeatsGreedy(t *testing.T) {
	blk := starBlock(t, 7, 1, 0, 0, 1)
	low, err := Optimize(blk, Options{Level: LevelLow})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Optimize(blk, Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	if high.Plan.Cost > low.Plan.Cost*1.0001 {
		t.Fatalf("DP plan (%.0f) costs more than greedy plan (%.0f)",
			high.Plan.Cost, low.Plan.Cost)
	}
}

func TestLevelsOrderSearchSpace(t *testing.T) {
	blk := starBlock(t, 7, 1, 0, 0, 1)
	var joins [NumLevels]int
	for l := LevelMediumLeftDeep; l < NumLevels; l++ {
		res, err := Optimize(blk, Options{Level: l})
		if err != nil {
			t.Fatal(err)
		}
		joins[l], _ = res.TotalJoins()
	}
	if !(joins[LevelMediumLeftDeep] <= joins[LevelMediumZigZag] &&
		joins[LevelMediumZigZag] <= joins[LevelHigh] &&
		joins[LevelHighInner2] <= joins[LevelHigh]) {
		t.Fatalf("levels not ordered by joins: %v", joins)
	}
}

func TestSubsumes(t *testing.T) {
	if !LevelHigh.Subsumes(LevelMediumLeftDeep) || !LevelHigh.Subsumes(LevelHighInner2) {
		t.Fatal("LevelHigh should subsume everything")
	}
	if !LevelHighInner2.Subsumes(LevelMediumLeftDeep) {
		t.Fatal("inner<=2 subsumes left-deep (inner size 1)")
	}
	if LevelMediumLeftDeep.Subsumes(LevelHigh) {
		t.Fatal("left-deep cannot subsume bushy")
	}
	if !LevelMediumLeftDeep.Subsumes(LevelLow) {
		t.Fatal("every DP level subsumes the greedy level")
	}
}

func TestParallelOptimization(t *testing.T) {
	blk := starBlock(t, 5, 2, 0, 0, 4)
	res, err := Optimize(blk, Options{Level: LevelHigh, Config: cost.Parallel4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no parallel plan")
	}
	// Parallel optimization explores (order, partition) combinations and so
	// generates strictly more join plans than serial on the same query.
	serialBlk := starBlock(t, 5, 2, 0, 0, 1)
	serial, err := Optimize(serialBlk, Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	cp, cs := res.TotalCounters(), serial.TotalCounters()
	if cp.TotalGenerated() <= cs.TotalGenerated() {
		t.Fatalf("parallel generated %d plans, serial %d — expected more in parallel",
			cp.TotalGenerated(), cs.TotalGenerated())
	}
	// Some plan in some entry carries a non-DC partition.
	found := false
	for _, e := range res.Blocks[0].Memo.Entries() {
		for _, p := range e.Plans {
			if !p.Part.Empty() {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no plan carries a partition in parallel mode")
	}
}

func TestFinishOrderBy(t *testing.T) {
	blk := starBlock(t, 4, 1, 2, 0, 1)
	res, err := Optimize(blk, Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	want := props.Order{Cols: blk.OrderBy}
	eq := blk.EquivWithin(blk.AllTables())
	if !want.PrefixOfUnder(res.Plan.Order, eq) {
		t.Fatalf("final plan order %v does not satisfy ORDER BY %v", res.Plan.Order, want)
	}
}

func TestFinishGroupBy(t *testing.T) {
	blk := starBlock(t, 4, 1, 0, 2, 1)
	res, err := Optimize(blk, Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Op != memo.OpGroupBy {
		t.Fatalf("final operator = %v, want GRPBY", res.Plan.Op)
	}
	if res.Plan.Card > res.Plan.Left.Card {
		t.Fatal("aggregation increased cardinality")
	}
}

func TestPilotPassPrunesButCompletes(t *testing.T) {
	blk := starBlock(t, 7, 2, 1, 0, 1)
	with, err := Optimize(blk, Options{Level: LevelHigh, PilotPass: true})
	if err != nil {
		t.Fatal(err)
	}
	c := with.TotalCounters()
	if c.PilotPruned == 0 {
		t.Skip("pilot bound pruned nothing on this query shape")
	}
	frac := float64(c.PilotPruned) / float64(c.TotalGenerated())
	if frac > 0.5 {
		t.Fatalf("pilot pass pruned %.0f%% of plans — bound looks wrong", frac*100)
	}
	if with.Plan == nil {
		t.Fatal("pilot pass lost the final plan")
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	blk := starBlock(t, 8, 2, 1, 0, 1)
	res, err := Optimize(blk, Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Breakdown()
	sum := b.MGJN + b.NLJN + b.HSJN + b.PlanSaving + b.Other
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("breakdown sums to %v", sum)
	}
	joinShare := b.MGJN + b.NLJN + b.HSJN + b.PlanSaving
	if joinShare < 0.5 {
		t.Fatalf("join optimization share = %.0f%%, expected to dominate compilation", joinShare*100)
	}
}

func TestOuterJoinQueryCompiles(t *testing.T) {
	cb := catalog.NewBuilder("oj")
	cb.Table("f", 100_000).Column("k", 1_000).Column("d", 100)
	cb.Table("d1", 1_000).Column("k", 1_000).Column("v", 100)
	cb.Table("d2", 500).Column("v", 100).Column("w", 10)
	cat := cb.Build()
	qb := query.NewBuilder("oj", cat)
	qb.AddTable("f", "")
	qb.AddTable("d1", "")
	qb.AddTable("d2", "")
	qb.JoinEq("f", "k", "d1", "k")
	qb.JoinEq("d1", "v", "d2", "v")
	qb.LeftOuter(2, 1) // d2 null-producing, requires d1
	blk := qb.MustBuild()

	res, err := Optimize(blk, Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan for outer-join query")
	}
	// Restriction bites through orientations: d2 may never be the outer,
	// so two of the four pairs lose one orientation each.
	ordered, pairs := res.TotalJoins()
	if pairs != 4 {
		t.Fatalf("pairs = %d, want 4", pairs)
	}
	if ordered != 6 {
		t.Fatalf("ordered joins = %d, want 6 (d2 never an outer)", ordered)
	}
}

func TestMultiBlockDerivedCardPropagation(t *testing.T) {
	cb := catalog.NewBuilder("mb")
	cb.Table("base", 100_000).Column("g", 50).Column("v", 1_000)
	cb.Table("outer_t", 10_000).Column("g", 50)
	cat := cb.Build()

	child := query.NewBuilder("child", cat)
	child.AddTable("base", "")
	child.FilterEq("base", "v")
	child.SelectCols(child.Col("base", "g"))
	childBlk := child.MustBuild()

	parent := query.NewBuilder("parent", cat)
	parent.AddTable("outer_t", "")
	parent.AddDerived(childBlk, "dv", false)
	parent.Join(parent.Col("outer_t", "g"), parent.Col("dv", "g"), query.Eq)
	blk := parent.MustBuild()

	res, err := Optimize(blk, Options{Level: LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 2 {
		t.Fatalf("optimized %d blocks, want 2", len(res.Blocks))
	}
	// The derived table read the child's output cardinality (~100 rows)
	// from this compile, not from the block.
	var ref *query.TableRef
	for _, r := range blk.Tables {
		if r.IsDerived() {
			ref = r
		}
	}
	childCard := res.Blocks[0].Plan.Card
	got := res.Blocks[1].Memo.Entry(bitset.Single(ref.Index)).Card
	if got != childCard || got <= 1 || got > 10_000 {
		t.Fatalf("derived table card = %v, child output %v", got, childCard)
	}
}

func TestLevelStringsAndEnumOptions(t *testing.T) {
	for l := LevelLow; l < NumLevels; l++ {
		if l.String() == "" {
			t.Fatalf("level %d has empty name", l)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EnumOptions on LevelLow did not panic")
		}
	}()
	LevelLow.EnumOptions()
}

func TestLazyOrderPolicyGeneratesFewerPlans(t *testing.T) {
	blk1 := starBlock(t, 6, 2, 1, 0, 1)
	blk2 := starBlock(t, 6, 2, 1, 0, 1)
	eager, err := Optimize(blk1, Options{Level: LevelHigh, OrderPolicy: props.Eager})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Optimize(blk2, Options{Level: LevelHigh, OrderPolicy: props.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	ce, cl := eager.TotalCounters(), lazy.TotalCounters()
	if cl.TotalGenerated() >= ce.TotalGenerated() {
		t.Fatalf("lazy policy generated %d plans, eager %d — lazy should shrink the space",
			cl.TotalGenerated(), ce.TotalGenerated())
	}
}

func BenchmarkOptimizeStar8Serial(b *testing.B) {
	blk := starBlock(b, 8, 2, 1, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(blk, Options{Level: LevelHigh}); err != nil {
			b.Fatal(err)
		}
	}
}
