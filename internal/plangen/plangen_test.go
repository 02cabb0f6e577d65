package plangen

import (
	"context"
	"math"
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/memo"
	"cote/internal/optctx"
	"cote/internal/props"
	"cote/internal/query"
)

// fixture builds a 3-table chain a-b-c with an ORDER BY, optionally
// partitioned, and runs plan generation, returning the memo and counters.
func fixture(t *testing.T, nodes int, level enum.Options) (*query.Block, *memo.Memo, *Generator) {
	t.Helper()
	cb := catalog.NewBuilder("pg")
	a := cb.Table("a", 100_000)
	a.Column("x", 1_000).Column("m", 500).Index("ix_a", false, "x")
	if nodes > 1 {
		a.Partition(nodes, "x")
	}
	b := cb.Table("b", 50_000)
	b.Column("x", 1_000).Column("y", 1_000)
	if nodes > 1 {
		b.Partition(nodes, "y")
	}
	cb.Table("c", 10_000).Column("y", 1_000)
	cat := cb.Build()

	qb := query.NewBuilder("pg", cat)
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.AddTable("c", "")
	qb.JoinEq("a", "x", "b", "x")
	qb.JoinEq("b", "y", "c", "y")
	qb.OrderBy(qb.Col("a", "m"))
	blk := qb.MustBuild()

	cfg := cost.Serial
	if nodes > 1 {
		cfg = cost.Parallel4
	}
	card := cost.NewEstimator(blk, cost.Full)
	sc := props.NewScope(blk)
	mem := memo.New(blk.NumTables())
	gen := New(blk, sc, mem, card, Options{Config: cfg, Timed: true})
	if _, err := enum.New(blk, mem, card, level).Run(gen.Hooks()); err != nil {
		t.Fatal(err)
	}
	return blk, mem, gen
}

func TestBaseEntryPlans(t *testing.T) {
	blk, mem, gen := fixture(t, 1, enum.Options{})
	ea := mem.Entry(bitset.Of(0))
	// Table a: scan (DC) + plans for interesting orders (a.x join col via
	// index, a.m via eager sort).
	if len(ea.Plans) != 3 {
		t.Fatalf("entry a has %d plans: %v", len(ea.Plans), ea.Plans)
	}
	ax, am := blk.Tables[0].FirstCol, blk.Tables[0].FirstCol+1
	if ea.BestWithOrder(props.OrderOn(ax), &ea.Equiv) == nil {
		t.Fatal("no plan ordered on the join column")
	}
	if ea.BestWithOrder(props.OrderOn(am), &ea.Equiv) == nil {
		t.Fatal("no plan ordered on the ORDER BY column")
	}
	if gen.Counters.AccessPlans == 0 || gen.Counters.EnforcerPlans == 0 {
		t.Fatalf("counters: %+v", gen.Counters)
	}
}

func TestJoinPlanGenerationCounts(t *testing.T) {
	_, mem, gen := fixture(t, 1, enum.Options{})
	// Chain of 3: pairs (a,b), (b,c), (ab,c), (a,bc) = 4, each both ways.
	if got := gen.Counters.Generated[props.HSJN]; got != 8 {
		t.Fatalf("HSJN generated = %d, want 8 (one per ordered join)", got)
	}
	if gen.Counters.Generated[props.NLJN] < 8 || gen.Counters.Generated[props.MGJN] < 8 {
		t.Fatalf("join counts too low: %+v", gen.Counters.Generated)
	}
	// The final entry holds at least a DC plan and the ORDER BY-ordered
	// plan.
	root := mem.Entry(bitset.Of(0, 1, 2))
	if root == nil || len(root.Plans) < 2 {
		t.Fatalf("root entry plans: %+v", root)
	}
}

func TestOrderRetirementAtJoin(t *testing.T) {
	blk, mem, _ := fixture(t, 1, enum.Options{})
	// At {a,b}, the a.x order has retired (predicate applied, no further
	// use); no surviving plan should carry it as its declared order.
	eab := mem.Entry(bitset.Of(0, 1))
	ax := blk.Tables[0].FirstCol
	for _, p := range eab.Plans {
		if !p.Order.Empty() && p.Order.Cols[0] == ax && p.Order.Len() == 1 {
			t.Fatalf("retired order on a.x survived: %v", p)
		}
	}
}

func TestMergeCandidates(t *testing.T) {
	oc := []query.ColID{1, 2, 3}
	ic := []query.ColID{11, 12, 13}
	outs, ins := MergeCandidates(oc, ic)
	if len(outs) != 4 || len(ins) != 4 {
		t.Fatalf("candidates = %d, want 3 singles + composite", len(outs))
	}
	if outs[3].Len() != 3 || ins[3].Len() != 3 {
		t.Fatal("composite candidate malformed")
	}
	// Single predicate: no composite.
	outs, _ = MergeCandidates(oc[:1], ic[:1])
	if len(outs) != 1 {
		t.Fatalf("single-pred candidates = %d", len(outs))
	}
}

func TestParallelPlansCarryPartitions(t *testing.T) {
	_, mem, gen := fixture(t, 4, enum.Options{})
	var withPart int
	for _, e := range mem.Entries() {
		for _, p := range e.Plans {
			if !p.Part.Empty() {
				withPart++
			}
		}
	}
	if withPart == 0 {
		t.Fatal("no partitioned plans in parallel mode")
	}
	if gen.Counters.EnforcerPlans == 0 {
		t.Fatal("no enforcers (sorts/repartitions) in parallel mode")
	}
}

func TestLazyPolicySkipsEnforcedSorts(t *testing.T) {
	cb := catalog.NewBuilder("lz")
	cb.Table("r", 1_000).Column("x", 100)
	cb.Table("s", 1_000).Column("x", 100)
	cat := cb.Build()
	qb := query.NewBuilder("lz", cat)
	qb.AddTable("r", "")
	qb.AddTable("s", "")
	qb.JoinEq("r", "x", "s", "x")
	blk := qb.MustBuild()

	card := cost.NewEstimator(blk, cost.Full)
	sc := props.NewScope(blk)
	mem := memo.New(2)
	gen := New(blk, sc, mem, card, Options{OrderPolicy: props.Lazy})
	if _, err := enum.New(blk, mem, card, enum.Options{}).Run(gen.Hooks()); err != nil {
		t.Fatal(err)
	}
	// No indexes, lazy policy: no sort enforcers at base entries.
	if gen.Counters.EnforcerPlans != 0 {
		t.Fatalf("lazy policy generated %d enforcers", gen.Counters.EnforcerPlans)
	}
}

func TestPilotBoundCounting(t *testing.T) {
	blk, _, unbounded := fixture(t, 1, enum.Options{})
	best := 0.0
	{
		// Recover the best plan cost from a fresh run for the bound.
		card := cost.NewEstimator(blk, cost.Full)
		sc := props.NewScope(blk)
		mem := memo.New(blk.NumTables())
		gen := New(blk, sc, mem, card, Options{})
		if _, err := enum.New(blk, mem, card, enum.Options{}).Run(gen.Hooks()); err != nil {
			t.Fatal(err)
		}
		best = mem.Entry(blk.AllTables()).Best().Cost
	}
	card := cost.NewEstimator(blk, cost.Full)
	sc := props.NewScope(blk)
	mem := memo.New(blk.NumTables())
	gen := New(blk, sc, mem, card, Options{PilotBound: best})
	if _, err := enum.New(blk, mem, card, enum.Options{}).Run(gen.Hooks()); err != nil {
		t.Fatal(err)
	}
	// The bound can only shrink the search (bound-pruned plans at lower
	// entries stop feeding joins above them).
	if g, u := gen.Counters.TotalGenerated(), unbounded.Counters.TotalGenerated(); g > u || g < u/2 {
		t.Fatalf("generated %d with bound vs %d without", g, u)
	}
	// The optimal plan survives the bound.
	if got := mem.Entry(blk.AllTables()).Best().Cost; got > best*1.0001 {
		t.Fatalf("bounded best %v worse than unbounded %v", got, best)
	}
}

func TestTimingCountersPopulated(t *testing.T) {
	_, _, gen := fixture(t, 1, enum.Options{})
	c := gen.Counters
	for m := props.JoinMethod(0); m < props.NumJoinMethods; m++ {
		if c.GenTime[m] <= 0 {
			t.Fatalf("no generation time recorded for %v", m)
		}
	}
	if c.SaveTime <= 0 || c.AccessTime <= 0 {
		t.Fatalf("timing counters missing: %+v", c)
	}
}

func TestSortWidthFactor(t *testing.T) {
	narrow := sortWidthFactor(props.OrderOn(1))
	wide := sortWidthFactor(props.OrderOn(1, 2, 3))
	if narrow >= wide {
		t.Fatal("wider sort keys should cost more")
	}
	if narrow != 1 {
		t.Fatalf("single-column factor = %v, want 1", narrow)
	}
}

// TestResetChargesScratchLikeFresh is the plangen half of the pool-state
// rule (the memo half is TestResetZeroesAccounting): a generator and a MEMO
// reset for a block after serving a larger one add to the run exactly the
// scratch a new pair adds for it — kept node chunks like new ones, the
// buffers at what the block used of them, not at the capacity the larger
// block left — and Finish lets go of the run and the MEMO.
func TestResetChargesScratchLikeFresh(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		cfg := cost.Serial
		if nodes > 1 {
			cfg = cost.Parallel4
		}
		large := chainBlock(t, nodes, 2_000_000, 90_000, 400, 7_000_000, 52_000, 800_000, 3_000, 61_000, 9_000_000, 700)
		small := chainBlock(t, nodes, 120_000, 3_300_000)
		run := func(g *Generator, mem *memo.Memo, blk *query.Block) int64 {
			oc := optctx.New(context.Background())
			card := cost.NewEstimator(blk, cost.Full)
			mem.Reset(blk.NumTables())
			g.Reset(blk, props.NewScope(blk), mem, card, Options{Config: cfg, Exec: oc})
			if _, err := enum.New(blk, mem, card, enum.Options{}).Run(g.Hooks()); err != nil {
				t.Fatal(err)
			}
			oc.EndBlock(mem, g.Finish(), 0)
			if g.exec != nil || g.mem != nil {
				t.Fatal("Finish kept the run or the MEMO — a reused generator would pin or charge a finished block")
			}
			res := oc.Resources()
			return res.UsedBytes - res.DurableUsedBytes
		}
		want := run(new(Generator), memo.New(0), small)
		if want < memo.NodeChunkBytes {
			t.Fatalf("nodes=%d: scratch charge %d, want at least one node chunk (%d)", nodes, want, memo.NodeChunkBytes)
		}
		g, mem := new(Generator), memo.New(0)
		if first := run(g, mem, large); first <= 2*memo.NodeChunkBytes {
			t.Fatalf("nodes=%d: the large block charged %d: it must enter more chunks than the small one", nodes, first)
		}
		if got := run(g, mem, small); got != want {
			t.Fatalf("nodes=%d: scratch charge %d after a larger block, %d on a new generator and MEMO", nodes, got, want)
		}
	}
}

// chainBlock builds a chain query t0-t1-...-tk over tables of the given row
// counts, indexed on the join column and ordered on a non-join column so
// entries carry several plans per cardinality.
func chainBlock(t *testing.T, nodes int, rows ...float64) *query.Block {
	t.Helper()
	cb := catalog.NewBuilder("chain")
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = string(rune('a' + i))
		tb := cb.Table(names[i], r)
		tb.Column("x", r/10).Column("y", r/20).Column("m", 50).Index("ix_"+names[i], false, "x")
		if nodes > 1 {
			tb.Partition(nodes, "x")
		}
	}
	qb := query.NewBuilder("chain", cb.Build())
	for _, n := range names {
		qb.AddTable(n, "")
	}
	for i := 1; i < len(names); i++ {
		qb.JoinEq(names[i-1], "y", names[i], "x")
	}
	qb.OrderBy(qb.Col(names[0], "m"))
	return qb.MustBuild()
}

// planCosts runs plan generation for blk on the given generator and returns
// every surviving plan's cost in MEMO order.
func planCosts(t *testing.T, blk *query.Block, cfg *cost.Config, gen *Generator) []float64 {
	t.Helper()
	card := cost.NewEstimator(blk, cost.Full)
	mem := memo.New(blk.NumTables())
	gen.Reset(blk, props.NewScope(blk), mem, card, Options{Config: cfg})
	if _, err := enum.New(blk, mem, card, enum.Options{}).Run(gen.Hooks()); err != nil {
		t.Fatal(err)
	}
	var costs []float64
	for _, e := range mem.Entries() {
		for _, p := range e.Plans {
			costs = append(costs, p.Cost)
		}
	}
	return costs
}

// A reused generator carries its buffer-model memo, its arena and its
// buffers from one query into the next, uninvalidated. The second query must
// cost exactly as it does on a generator that has seen nothing, at both node
// counts.
func TestPooledScratchMemoAcrossQueries(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		cfg := cost.Serial
		if nodes > 1 {
			cfg = cost.Parallel4
		}
		first := chainBlock(t, nodes, 2_000_000, 90_000, 400, 7_000_000, 52_000)
		second := chainBlock(t, nodes, 120_000, 3_300_000, 41, 880_000)

		want := planCosts(t, second, cfg, new(Generator))
		pooled := new(Generator)
		planCosts(t, first, cfg, pooled)
		got := planCosts(t, second, cfg, pooled)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("nodes=%d: %d plans on the reused scratch, %d on a fresh one", nodes, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("nodes=%d: plan %d costs %v on the reused scratch, %v on a fresh one", nodes, i, got[i], want[i])
			}
		}
	}
}

// The scratch — arena, buffers, hit memo — lives in the Generator: New is
// one allocation, and resetting a used generator for a block is none.
func TestNewAllocatesOnlyTheGenerator(t *testing.T) {
	blk := chainBlock(t, 1, 1_000, 2_000)
	card := cost.NewEstimator(blk, cost.Full)
	sc := props.NewScope(blk)
	mem := memo.New(blk.NumTables())
	if avg := testing.AllocsPerRun(100, func() {
		New(blk, sc, mem, card, Options{})
	}); avg > 1 {
		t.Fatalf("New = %.1f allocs, want 1 — the scratch must come with the Generator", avg)
	}
	gen := New(blk, sc, mem, card, Options{})
	if _, err := enum.New(blk, mem, card, enum.Options{}).Run(gen.Hooks()); err != nil {
		t.Fatal(err)
	}
	gen.Finish()
	if avg := testing.AllocsPerRun(100, func() {
		gen.Reset(blk, sc, mem, card, Options{})
	}); avg != 0 {
		t.Fatalf("Reset = %.1f allocs, want 0", avg)
	}
}

// genNLJN shares one set of cardinality-dependent terms among the outer
// plans of a join. With an expensive predicate the outer entry mixes plans
// of two cardinalities (applied at the scan, or deferred past the joins), so
// the shared terms must be recomputed mid-loop: every surviving serial NLJN
// plan has to cost what pricing it alone would give.
func TestSharedNLJNTermsMatchPerPlanCosting(t *testing.T) {
	cb := catalog.NewBuilder("exp")
	cb.Table("a", 400_000).Column("x", 4_000).Column("img", 100).Column("m", 50).Index("ix_a", false, "x")
	cb.Table("b", 90_000).Column("x", 4_000).Column("y", 900).Index("ix_b", false, "y")
	cb.Table("c", 1_500_000).Column("y", 900)
	qb := query.NewBuilder("exp", cb.Build())
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.AddTable("c", "")
	qb.JoinEq("a", "x", "b", "x")
	qb.JoinEq("b", "y", "c", "y")
	qb.ExpensiveFilter(qb.Col("a", "img"), 0.05)
	qb.OrderBy(qb.Col("a", "m"))
	blk := qb.MustBuild()

	card := cost.NewEstimator(blk, cost.Full)
	mem := memo.New(blk.NumTables())
	gen := New(blk, props.NewScope(blk), mem, card, Options{})
	// Check every generated NLJN plan on its way into the MEMO, pruned later
	// or not, and note the outer cardinalities each genNLJN loop priced.
	type loop struct{ result, outer bitset.Set }
	cards := map[loop]map[float64]bool{}
	mixed := false
	gen.sink = func(result *memo.Entry, p *memo.Plan) {
		if p.Op == memo.OpNLJN {
			want := cost.Serial.NLJNCost(new(cost.HitMemo), p.Left.Cost, p.Left.Card, p.Right.Cost, p.Right.Card, result.Card)
			if math.Float64bits(p.Cost) != math.Float64bits(want) {
				t.Errorf("NLJN over outer card %v costs %v, priced alone %v", p.Left.Card, p.Cost, want)
			}
			l := loop{result.Tables, p.Left.Tables}
			if cards[l] == nil {
				cards[l] = map[float64]bool{}
			}
			cards[l][p.Left.Card] = true
			mixed = mixed || len(cards[l]) > 1
		}
		gen.commitJoin(result, p)
	}
	if _, err := enum.New(blk, mem, card, enum.Options{}).Run(gen.Hooks()); err != nil {
		t.Fatal(err)
	}
	if !mixed {
		t.Fatal("no join priced outers of two cardinalities — the fixture no longer mixes deferred and applied outers")
	}
}
