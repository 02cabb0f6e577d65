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
	"cote/internal/resource"
	"cote/internal/testutil"
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
	gen := New(blk, sc, mem, card, Options{Config: cfg})
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

// TestReleaseScratchZeroesAccounting is the plangen half of the pooled-reuse
// accounting rule (the memo half is TestResetZeroesAccounting): ReleaseScratch
// must settle outstanding buffer growth, detach the accountant, and zero both
// charge tallies so the next borrower starts clean — and re-attaching already
// charged capacity must charge it exactly once, never per borrow.
func TestReleaseScratchZeroesAccounting(t *testing.T) {
	oc := optctx.New(context.Background())
	acct := oc.Resources()

	cb := catalog.NewBuilder("acct")
	cb.Table("a", 100_000).Column("x", 1_000)
	cb.Table("b", 50_000).Column("x", 1_000)
	cat := cb.Build()
	qb := query.NewBuilder("acct", cat)
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.JoinEq("a", "x", "b", "x")
	blk := qb.MustBuild()

	card := cost.NewEstimator(blk, cost.Full)
	mem := memo.New(blk.NumTables())
	gen := New(blk, props.NewScope(blk), mem, card, Options{Config: cost.Serial, Exec: oc})
	if _, err := enum.New(blk, mem, card, enum.Options{}).Run(gen.Hooks()); err != nil {
		t.Fatal(err)
	}
	if gen.scratch.arena.acct != acct {
		t.Fatal("accountant not attached to the arena")
	}
	scratchUsed := acct.KindUsed(resource.KindScratch)
	if scratchUsed <= 0 {
		t.Fatalf("KindScratch used = %d, want > 0 (arena chunk + buffers)", scratchUsed)
	}

	s := gen.scratch
	gen.ReleaseScratch()
	if s.arena.acct != nil {
		t.Fatal("ReleaseScratch kept the accountant attached — pooled reuse would charge a finished run")
	}
	if s.arena.charged != 0 || s.bufCharged != 0 {
		t.Fatalf("ReleaseScratch left charge tallies arena=%d buf=%d, want 0 — next borrower would skip its own charges", s.arena.charged, s.bufCharged)
	}

	// Re-attach the same (now pooled-state) scratch to a fresh run: retained
	// capacity is charged exactly once, and settling again charges nothing.
	acct2 := resource.New()
	s.arena.attach(acct2)
	s.chargeBufGrowth()
	once := acct2.KindUsed(resource.KindScratch)
	if once <= 0 {
		t.Fatalf("retained capacity charged %d on re-attach, want > 0", once)
	}
	s.chargeBufGrowth()
	s.chargeBufGrowth()
	if got := acct2.KindUsed(resource.KindScratch); got != once {
		t.Fatalf("repeated settlement double-charged pooled buffers: %d -> %d", once, got)
	}
	s.arena.resetAccounting()
	s.bufCharged = 0
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

// planCosts runs plan generation for blk on the given scratch and returns
// every surviving plan's cost in MEMO order.
func planCosts(t *testing.T, blk *query.Block, cfg *cost.Config, s *scratch) []float64 {
	t.Helper()
	card := cost.NewEstimator(blk, cost.Full)
	mem := memo.New(blk.NumTables())
	gen := New(blk, props.NewScope(blk), mem, card, Options{Config: cfg})
	gen.ReleaseScratch()
	gen.scratch = s
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

// A pooled scratch carries its buffer-model memo from one query into the
// next, uninvalidated. The second query must cost exactly as it does on a
// scratch that has seen nothing, at both node counts.
func TestPooledScratchMemoAcrossQueries(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		cfg := cost.Serial
		if nodes > 1 {
			cfg = cost.Parallel4
		}
		first := chainBlock(t, nodes, 2_000_000, 90_000, 400, 7_000_000, 52_000)
		second := chainBlock(t, nodes, 120_000, 3_300_000, 41, 880_000)

		want := planCosts(t, second, cfg, new(scratch))
		pooled := new(scratch)
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

// The memo is part of the pooled scratch: borrowing it costs a generator
// nothing beyond the Generator value itself.
func TestNewAllocatesOnlyTheGenerator(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	blk := chainBlock(t, 1, 1_000, 2_000)
	card := cost.NewEstimator(blk, cost.Full)
	sc := props.NewScope(blk)
	mem := memo.New(blk.NumTables())
	New(blk, sc, mem, card, Options{}).ReleaseScratch() // seed the pool
	if avg := testing.AllocsPerRun(100, func() {
		New(blk, sc, mem, card, Options{}).ReleaseScratch()
	}); avg > 1 {
		t.Fatalf("New + ReleaseScratch = %.1f allocs, want 1 — the scratch (arena, buffers, hit memo) must come from the pool", avg)
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
