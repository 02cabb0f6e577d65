package memo

import (
	"testing"
	"testing/quick"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/props"
	"cote/internal/query"
)

// blockFixture builds a two-table block for equivalence-aware tests.
func blockFixture(t *testing.T) *query.Block {
	t.Helper()
	cb := catalog.NewBuilder("m")
	cb.Table("r", 100).Column("a", 10).Column("b", 10)
	cb.Table("s", 100).Column("a", 10)
	cat := cb.Build()
	qb := query.NewBuilder("m", cat)
	qb.AddTable("r", "")
	qb.AddTable("s", "")
	qb.JoinEq("r", "a", "s", "a")
	return qb.MustBuild()
}

// entryFor returns the entry for s, initializing it as the enumerator does
// when this call creates it (initEntry).
func entryFor(blk *query.Block, m *Memo, s bitset.Set) *Entry {
	e, created := m.GetOrCreate(s)
	if created {
		initEntry(m, e, blk)
	}
	return e
}

// initEntry caches e's predicate sides and equivalence classes the way the
// enumerator does: a base entry from its table, any other as the join of
// its lowest table's entry and the entry of the rest, each created first
// when missing.
func initEntry(m *Memo, e *Entry, blk *query.Block) {
	if e.Tables.Len() == 1 {
		m.InitBase(e, blk)
		return
	}
	lo := bitset.Single(e.Tables.Min())
	m.InitJoin(e, entryFor(blk, m, lo), entryFor(blk, m, e.Tables.Diff(lo)), blk)
}

func TestGetOrCreate(t *testing.T) {
	m := New(2)
	e1, created := m.GetOrCreate(bitset.Of(0))
	if !created || e1 == nil {
		t.Fatal("first GetOrCreate did not create")
	}
	e2, created := m.GetOrCreate(bitset.Of(0))
	if created || e2 != e1 {
		t.Fatal("second GetOrCreate did not return the same entry")
	}
	if m.Entry(bitset.Of(1)) != nil {
		t.Fatal("Entry returned non-existent entry")
	}
	if m.NumEntries() != 1 {
		t.Fatalf("NumEntries = %d", m.NumEntries())
	}
	if !e1.OuterEligible {
		t.Fatal("new entries default to outer-eligible")
	}
}

func TestOfSizeGrouping(t *testing.T) {
	m := New(3)
	m.GetOrCreate(bitset.Of(0))
	m.GetOrCreate(bitset.Of(1))
	m.GetOrCreate(bitset.Of(0, 1))
	if got := len(m.OfSize(1)); got != 2 {
		t.Fatalf("OfSize(1) = %d entries", got)
	}
	if got := len(m.OfSize(2)); got != 1 {
		t.Fatalf("OfSize(2) = %d entries", got)
	}
	if m.OfSize(99) != nil || m.OfSize(-1) != nil {
		t.Fatal("out-of-range OfSize not nil")
	}
	if got := len(m.Entries()); got != 3 {
		t.Fatalf("Entries = %d", got)
	}
}

func TestInsertPlanPruning(t *testing.T) {
	blk := blockFixture(t)
	m := New(2)
	e := entryFor(blk, m, bitset.Of(0))
	rA := query.ColID(0) // r.a

	cheapDC := &Plan{Op: OpTableScan, Tables: e.Tables, Cost: 100}
	expensiveDC := &Plan{Op: OpTableScan, Tables: e.Tables, Cost: 200}
	ordered := &Plan{Op: OpIndexScan, Tables: e.Tables, Cost: 150, Order: props.OrderOn(rA)}

	if !m.InsertPlan(e, cheapDC) {
		t.Fatal("first plan rejected")
	}
	if m.InsertPlan(e, expensiveDC) {
		t.Fatal("dominated DC plan accepted")
	}
	// More expensive but ordered: kept (order violates optimality).
	if !m.InsertPlan(e, ordered) {
		t.Fatal("ordered plan pruned by cheaper unordered plan")
	}
	if len(e.Plans) != 2 || m.NumPlans() != 2 {
		t.Fatalf("plans = %d, NumPlans = %d", len(e.Plans), m.NumPlans())
	}
	// A cheaper ordered plan prunes both the old ordered one and, being
	// more general than DC at lower cost, the DC plan too.
	better := &Plan{Op: OpIndexScan, Tables: e.Tables, Cost: 50, Order: props.OrderOn(rA)}
	if !m.InsertPlan(e, better) {
		t.Fatal("better plan rejected")
	}
	if len(e.Plans) != 1 || e.Plans[0] != better || m.NumPlans() != 1 {
		t.Fatalf("pruning left %d plans", len(e.Plans))
	}
}

func TestInsertPlanSharingAcrossGenerality(t *testing.T) {
	// The paper's plan-sharing effect: a cheap plan ordered on (a, b)
	// prunes a costlier plan ordered on (a) alone.
	blk := blockFixture(t)
	m := New(2)
	e := entryFor(blk, m, bitset.Of(0))
	rA, rB := query.ColID(0), query.ColID(1)

	narrow := &Plan{Op: OpSort, Tables: e.Tables, Cost: 100, Order: props.OrderOn(rA)}
	general := &Plan{Op: OpIndexScan, Tables: e.Tables, Cost: 80, Order: props.OrderOn(rA, rB)}
	m.InsertPlan(e, narrow)
	if !m.InsertPlan(e, general) || len(e.Plans) != 1 {
		t.Fatalf("general plan should prune narrow one; plans = %v", e.Plans)
	}
	// The reverse does not hold: a cheap narrow plan keeps the general one.
	e2 := entryFor(blk, m, bitset.Of(1))
	gen2 := &Plan{Op: OpIndexScan, Tables: e2.Tables, Cost: 100, Order: props.OrderOn(rA, rB)}
	nar2 := &Plan{Op: OpSort, Tables: e2.Tables, Cost: 10, Order: props.OrderOn(rA)}
	m.InsertPlan(e2, gen2)
	m.InsertPlan(e2, nar2)
	if len(e2.Plans) != 2 {
		t.Fatalf("narrow plan wrongly pruned general one; plans = %v", e2.Plans)
	}
}

func TestPartitionBlocksPruning(t *testing.T) {
	blk := blockFixture(t)
	m := New(2)
	e := entryFor(blk, m, bitset.Of(0))
	rA := query.ColID(0)

	p1 := &Plan{Op: OpTableScan, Tables: e.Tables, Cost: 10, Part: props.PartitionOn(4, rA)}
	p2 := &Plan{Op: OpRepartition, Tables: e.Tables, Cost: 500}
	m.InsertPlan(e, p1)
	if !m.InsertPlan(e, p2) {
		t.Fatal("differently partitioned plan pruned")
	}
	if len(e.Plans) != 2 {
		t.Fatal("partition dimension collapsed")
	}
}

func TestEquivalenceAwarePruning(t *testing.T) {
	// After r.a = s.a is applied, an order on s.a dominates one on r.a.
	blk := blockFixture(t)
	m := New(2)
	e := entryFor(blk, m, bitset.Of(0, 1))
	rA, sA := query.ColID(0), query.ColID(2)

	onR := &Plan{Op: OpMGJN, Tables: e.Tables, Cost: 100, Order: props.OrderOn(rA)}
	onS := &Plan{Op: OpMGJN, Tables: e.Tables, Cost: 50, Order: props.OrderOn(sA)}
	m.InsertPlan(e, onR)
	if m.InsertPlan(e, onS) != true || len(e.Plans) != 1 {
		t.Fatalf("equivalent-order plan did not prune; plans = %d", len(e.Plans))
	}
}

func TestBestLookups(t *testing.T) {
	blk := blockFixture(t)
	m := New(2)
	e := entryFor(blk, m, bitset.Of(0))
	rA, rB := query.ColID(0), query.ColID(1)

	if e.Best() != nil || e.BestWithOrder(props.OrderOn(rA), &e.Equiv) != nil {
		t.Fatal("lookups on empty entry not nil")
	}
	dc := &Plan{Op: OpTableScan, Tables: e.Tables, Cost: 10}
	ab := &Plan{Op: OpIndexScan, Tables: e.Tables, Cost: 40, Order: props.OrderOn(rA, rB)}
	m.InsertPlan(e, dc)
	m.InsertPlan(e, ab)

	if e.Best() != dc {
		t.Fatal("Best != cheapest")
	}
	// Coverage: a request for (a) is satisfied by the (a,b) plan.
	if got := e.BestWithOrder(props.OrderOn(rA), &e.Equiv); got != ab {
		t.Fatalf("BestWithOrder(a) = %v", got)
	}
	if got := e.BestWithOrder(props.OrderOn(rB), &e.Equiv); got != nil {
		t.Fatal("BestWithOrder(b) found a plan")
	}
	// Partition lookup.
	part := props.PartitionOn(4, rA)
	pp := &Plan{Op: OpRepartition, Tables: e.Tables, Cost: 99, Part: part}
	m.InsertPlan(e, pp)
	if got := e.BestWithPartition(part, &e.Equiv); got != pp {
		t.Fatal("BestWithPartition wrong")
	}
	if got := e.BestWithPartition(props.PartitionOn(8, rA), &e.Equiv); got != nil {
		t.Fatal("BestWithPartition matched wrong node count")
	}
}

func TestPropertyListBytes(t *testing.T) {
	blk := blockFixture(t)
	m := New(2)
	e := entryFor(blk, m, bitset.Of(0))
	eq := &e.Equiv
	e.Orders.Add(props.OrderOn(0), eq)
	e.Orders.Add(props.OrderOn(1), eq)
	e.Parts.Add(props.PartitionOn(4, 0), eq)
	if got := m.PropertyListBytes(); got != 12 {
		t.Fatalf("PropertyListBytes = %d, want 12", got)
	}
}

func TestOperatorStrings(t *testing.T) {
	for op := OpTableScan; op <= OpGroupBy; op++ {
		if op.String() == "" {
			t.Fatalf("operator %d has empty name", op)
		}
	}
	if OpNLJN.JoinMethod() != props.NLJN || OpMGJN.JoinMethod() != props.MGJN || OpHSJN.JoinMethod() != props.HSJN {
		t.Fatal("JoinMethod mapping wrong")
	}
	if OpSort.JoinMethod() >= 0 {
		t.Fatal("non-join operator mapped to a join method")
	}
	p := &Plan{Op: OpNLJN, Left: &Plan{Op: OpTableScan, Tables: bitset.Of(0)}, Right: &Plan{Op: OpTableScan, Tables: bitset.Of(1)}}
	if p.String() == "" || (*Plan)(nil).String() != "<nil>" {
		t.Fatal("plan String wrong")
	}
}

// Property: after any insertion sequence, no plan in an entry dominates
// another (the invariant the MEMO maintains), and NumPlans matches the sum
// of per-entry plan counts.
func TestQuickMemoInvariant(t *testing.T) {
	blk := blockFixture(t)
	f := func(raw []uint16) bool {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		m := New(2)
		e := entryFor(blk, m, bitset.Of(0))
		for _, r := range raw {
			cost := float64(r%97) + 1
			var o props.Order
			switch r % 3 {
			case 1:
				o = props.OrderOn(0)
			case 2:
				o = props.OrderOn(0, 1)
			}
			m.InsertPlan(e, &Plan{Op: OpTableScan, Tables: e.Tables, Cost: cost, Order: o})
		}
		for i, a := range e.Plans {
			for j, b := range e.Plans {
				if i != j && dominates(a, b, &e.Equiv, m) {
					return false
				}
			}
		}
		return m.NumPlans() == len(e.Plans)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesSnapshotInvalidation(t *testing.T) {
	m := New(3)
	m.GetOrCreate(bitset.Of(1))
	m.GetOrCreate(bitset.Of(0))
	first := m.Entries()
	if len(first) != 2 || first[0].Tables != bitset.Of(0) || first[1].Tables != bitset.Of(1) {
		t.Fatalf("Entries not sorted by set value: %v", first)
	}
	if again := m.Entries(); &again[0] != &first[0] {
		t.Fatal("Entries rebuilt the snapshot without an intervening GetOrCreate")
	}
	m.GetOrCreate(bitset.Of(0, 1)) // invalidates
	all := m.Entries()
	if len(all) != 3 || all[2].Tables != bitset.Of(0, 1) {
		t.Fatalf("Entries missed the new entry after invalidation: %v", all)
	}
}

// BenchmarkEntries measures the cached-snapshot lookup against the sort the
// method once redid on every call (rebuild case included for contrast).
func BenchmarkEntries(b *testing.B) {
	const n = 12
	m := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.GetOrCreate(bitset.Of(i, j))
		}
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		m.Entries() // warm
		for i := 0; i < b.N; i++ {
			if len(m.Entries()) == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.sorted = nil
			if len(m.Entries()) == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// TestReset exercises the pooled-reuse path: a Reset MEMO must behave like
// a fresh New for any (smaller, equal, larger) table count, with the
// Entries snapshot invalidated and no state leaking from the previous use.
func TestReset(t *testing.T) {
	m := New(3)
	m.GetOrCreate(bitset.Of(0))
	m.GetOrCreate(bitset.Of(1, 2))
	e, _ := m.GetOrCreate(bitset.Of(1))
	m.InsertPlan(e, &Plan{Tables: bitset.Of(1), Cost: 1})
	m.PipelineMatters, m.ExpMatters = true, true
	if len(m.Entries()) != 3 {
		t.Fatal("setup failed")
	}

	for _, n := range []int{2, 3, 7} {
		m.Reset(n)
		if m.NumEntries() != 0 || m.NumPlans() != 0 {
			t.Fatalf("Reset(%d) kept %d entries, %d plans", n, m.NumEntries(), m.NumPlans())
		}
		if m.PipelineMatters || m.ExpMatters {
			t.Fatalf("Reset(%d) kept property flags", n)
		}
		if got := m.Entries(); len(got) != 0 {
			t.Fatalf("Reset(%d) kept a stale Entries snapshot: %v", n, got)
		}
		if m.Entry(bitset.Of(1)) != nil {
			t.Fatalf("Reset(%d) kept an entry", n)
		}
		// The MEMO is fully usable at the new size.
		all := bitset.Of(n - 1)
		m.GetOrCreate(all)
		if got := m.OfSize(1); len(got) != 1 || got[0].Tables != all {
			t.Fatalf("Reset(%d) size buckets broken: %v", n, got)
		}
	}
}

// TestResetZeroesAccounting is the counting half of the pooled-reuse
// contract: a MEMO's bytes are its counts times the footprints, and Reset
// zeroes the counts and the block's peaks, so a reused MEMO reports for a
// block exactly what a new one does.
func TestResetZeroesAccounting(t *testing.T) {
	blk := blockFixture(t)
	m := New(2)
	e := entryFor(blk, m, bitset.Of(0))
	m.InsertPlan(e, &Plan{Op: OpTableScan, Tables: e.Tables, Cost: 100})
	// A cheaper plan with the same properties prunes the first: the count
	// stays at one plan, and the peak never saw two.
	m.InsertPlan(e, &Plan{Op: OpTableScan, Tables: e.Tables, Cost: 50})
	m.AddProperties(3)
	m.NewPlan()

	durable := EntryFootprint + PlanFootprint + 3*PropertyValueBytes
	if got := m.DurableBytes(); got != durable {
		t.Fatalf("DurableBytes = %d, want %d", got, durable)
	}
	if got := m.Bytes(); got != durable+NodeChunkBytes {
		t.Fatalf("Bytes = %d, want %d (durable plus one node chunk)", got, durable+NodeChunkBytes)
	}
	if dp, p := m.Peaks(); dp != durable || p != durable+NodeChunkBytes {
		t.Fatalf("Peaks = %d, %d, want %d, %d", dp, p, durable, durable+NodeChunkBytes)
	}

	m.Reset(2)
	if dp, p := m.Peaks(); m.Bytes() != 0 || dp != 0 || p != 0 {
		t.Fatalf("after Reset: Bytes %d, Peaks %d, %d, want 0 — pooled reuse would inherit the last block's bytes", m.Bytes(), dp, p)
	}
	fresh := New(2)
	for _, mm := range []*Memo{m, fresh} {
		entryFor(blk, mm, bitset.Of(1))
		mm.AddProperties(5)
		mm.NewPlan()
	}
	if m.Bytes() != fresh.Bytes() || m.DurableBytes() != fresh.DurableBytes() {
		t.Fatalf("reused MEMO reports %d B (%d durable), a new one %d B (%d durable)", m.Bytes(), m.DurableBytes(), fresh.Bytes(), fresh.DurableBytes())
	}
	if dp, p := m.Peaks(); dp != m.DurableBytes() || p != m.Bytes() {
		t.Fatalf("reused MEMO's peaks %d, %d, want its bytes %d, %d", dp, p, m.DurableBytes(), m.Bytes())
	}
}
