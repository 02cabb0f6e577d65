package props

import (
	"testing"
	"testing/quick"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
)

// fixture builds the paper's Figure 3 query:
//
//	SELECT A.2 FROM A, B, C WHERE A.1 = B.1 AND B.2 = C.2 [ORDER BY A.2]
//
// Tables are named a, b, c with columns c1, c2.
func fixture(t *testing.T, withOrderBy bool) (*query.Block, *Scope) {
	t.Helper()
	cb := catalog.NewBuilder("fig3")
	for _, name := range []string{"a", "b", "c"} {
		cb.Table(name, 1000).Column("c1", 100).Column("c2", 100)
	}
	cat := cb.Build()

	qb := query.NewBuilder("fig3", cat)
	qb.AddTable("a", "")
	qb.AddTable("b", "")
	qb.AddTable("c", "")
	qb.JoinEq("a", "c1", "b", "c1")
	qb.JoinEq("b", "c2", "c", "c2")
	qb.SelectCols(qb.Col("a", "c2"))
	if withOrderBy {
		qb.OrderBy(qb.Col("a", "c2"))
	}
	blk := qb.MustBuild()
	return blk, NewScope(blk)
}

// Column ids in the fixture: a.c1=0 a.c2=1 b.c1=2 b.c2=3 c.c1=4 c.c2=5.
const (
	aC1 = query.ColID(iota)
	aC2
	bC1
	bC2
	cC1
	cC2
)

func TestOrderEqualityAndSubsumption(t *testing.T) {
	blk, _ := fixture(t, false)
	eqAll := blk.EquivWithin(blk.AllTables())
	eqNone := blk.EquivWithin(bitset.Set(0))

	oA := OrderOn(aC1)
	oB := OrderOn(bC1)
	if !oA.EqualUnder(oB, eqAll) {
		t.Fatal("a.c1 and b.c1 should be equal once a.c1=b.c1 is applied")
	}
	if oA.EqualUnder(oB, eqNone) {
		t.Fatal("a.c1 and b.c1 equal without the predicate applied")
	}

	oAB := OrderOn(aC1, aC2)
	if !oA.PrefixOfUnder(oAB, eqNone) || oAB.PrefixOfUnder(oA, eqNone) {
		t.Fatal("prefix subsumption wrong")
	}
	if !oA.PrefixOfUnder(oA, eqNone) {
		t.Fatal("prefix subsumption must be reflexive")
	}
	// Set subsumption ignores position.
	oBA := OrderOn(aC2, aC1)
	if !oAB.SetSubsetOfUnder(oBA, eqNone) || !oBA.SetSubsetOfUnder(oAB, eqNone) {
		t.Fatal("set subsumption should ignore order")
	}
	if oAB.PrefixOfUnder(oBA, eqNone) {
		t.Fatal("prefix subsumption must respect position")
	}
}

func TestOrderKeyCanonical(t *testing.T) {
	blk, _ := fixture(t, false)
	eqAll := blk.EquivWithin(blk.AllTables())
	if OrderOn(aC1).Key(eqAll) != OrderOn(bC1).Key(eqAll) {
		t.Fatal("keys of equivalent orders differ")
	}
	if OrderOn(aC1).Key(eqAll) == OrderOn(aC2).Key(eqAll) {
		t.Fatal("keys of distinct orders collide")
	}
	if (Order{}).Key(eqAll) != "-" {
		t.Fatal("empty order key")
	}
}

func TestOrderListDedup(t *testing.T) {
	blk, _ := fixture(t, false)
	eqAll := blk.EquivWithin(blk.AllTables())
	var l OrderList
	if !l.Add(OrderOn(aC1), eqAll) {
		t.Fatal("first Add failed")
	}
	if l.Add(OrderOn(bC1), eqAll) {
		t.Fatal("equivalent order not deduplicated")
	}
	if l.Add(Order{}, eqAll) {
		t.Fatal("empty order accepted")
	}
	if !l.Add(OrderOn(aC2), eqAll) || l.Len() != 2 {
		t.Fatalf("list = %v", l.Orders())
	}
	if !l.Contains(OrderOn(bC1), eqAll) || l.Contains(OrderOn(cC1), eqAll) {
		t.Fatal("Contains wrong")
	}
}

func TestPartitionSemantics(t *testing.T) {
	blk, _ := fixture(t, false)
	eqAll := blk.EquivWithin(blk.AllTables())
	eqNone := blk.EquivWithin(bitset.Set(0))

	p1 := PartitionOn(4, aC1, aC2)
	p2 := PartitionOn(4, aC2, bC1) // {a.c2, b.c1} ≡ {a.c2, a.c1} under eqAll
	if !p1.EqualUnder(p2, eqAll) {
		t.Fatal("set-equal partitions not equal under equivalence")
	}
	if p1.EqualUnder(p2, eqNone) {
		t.Fatal("partitions equal without applied predicate")
	}
	if p1.EqualUnder(PartitionOn(8, aC1, aC2), eqAll) {
		t.Fatal("different node counts compared equal")
	}
	if !p1.CoversJoinCols([]query.ColID{bC1, aC2}, eqAll) {
		t.Fatal("CoversJoinCols false for covered keys")
	}
	if p1.CoversJoinCols([]query.ColID{aC1}, eqNone) {
		t.Fatal("partial key cover accepted")
	}
	if (Partition{}).CoversJoinCols([]query.ColID{aC1}, eqNone) {
		t.Fatal("don't-care partition covers nothing")
	}
	if p1.Key(eqAll) != p2.Key(eqAll) {
		t.Fatal("canonical keys of set-equal partitions differ")
	}
}

func TestPartitionListDedupAndCover(t *testing.T) {
	blk, _ := fixture(t, false)
	eqAll := blk.EquivWithin(blk.AllTables())
	var l PartitionList
	l.Add(PartitionOn(4, aC1), eqAll)
	if l.Add(PartitionOn(4, bC1), eqAll) {
		t.Fatal("equivalent partition not deduplicated")
	}
	if !l.AnyCoversJoinCols([]query.ColID{bC1}, eqAll) {
		t.Fatal("AnyCoversJoinCols missed equivalent cover")
	}
	if l.AnyCoversJoinCols([]query.ColID{cC1}, eqAll) {
		t.Fatal("AnyCoversJoinCols false positive")
	}
}

func TestTable2PropagationClasses(t *testing.T) {
	// Row "order": NLJN full, MGJN partial, HSJN none.
	if NLJN.OrderPropagation() != Full || MGJN.OrderPropagation() != Partial || HSJN.OrderPropagation() != None {
		t.Fatal("order propagation row of Table 2 wrong")
	}
	// Row "partition": full for every method.
	for m := JoinMethod(0); m < NumJoinMethods; m++ {
		if m.PartitionPropagation() != Full {
			t.Fatalf("%v partition propagation != full", m)
		}
	}
	if NLJN.RequiresEquality() || !MGJN.RequiresEquality() || !HSJN.RequiresEquality() {
		t.Fatal("equality requirement wrong")
	}
}

func TestOrderInterestFutureJoin(t *testing.T) {
	blk, sc := fixture(t, false)
	// At {a}: a.c1 joins to b outside — interesting; a.c2 does not.
	sA := bitset.Of(0)
	eqA := blk.EquivWithin(sA)
	if !sc.OrderInterest(OrderOn(aC1), eqA).FutureJoin {
		t.Fatal("a.c1 not future-join interesting at {a}")
	}
	if sc.OrderUseful(OrderOn(aC2), eqA) {
		t.Fatal("a.c2 interesting at {a} without ORDER BY")
	}
	// At {a,b}: a.c1=b.c1 is applied and no join out of the set uses it —
	// retired. b.c2 joins to c — interesting.
	sAB := bitset.Of(0, 1)
	eqAB := blk.EquivWithin(sAB)
	if sc.OrderUseful(OrderOn(aC1), eqAB) {
		t.Fatal("a.c1 should retire at {a,b} (paper Figure 3a)")
	}
	if !sc.OrderInterest(OrderOn(bC2), eqAB).FutureJoin {
		t.Fatal("b.c2 should stay interesting at {a,b}")
	}
	// At {a,b,c}: everything retired (no ORDER BY).
	sAll := blk.AllTables()
	eqAll := blk.EquivWithin(sAll)
	for _, o := range []Order{OrderOn(aC1), OrderOn(bC2), OrderOn(cC2)} {
		if sc.OrderUseful(o, eqAll) {
			t.Fatalf("order %v survives at the top without ORDER BY", o)
		}
	}
}

func TestOrderInterestOrderBy(t *testing.T) {
	blk, sc := fixture(t, true) // ORDER BY a.c2
	sAll := blk.AllTables()
	eqAll := blk.EquivWithin(sAll)
	in := sc.OrderInterest(OrderOn(aC2), eqAll)
	if !in.OrderBy || in.FutureJoin {
		t.Fatalf("a.c2 interest at top = %+v, want OrderBy only", in)
	}
	// A more general order extending the ORDER BY is also interesting.
	if !sc.OrderInterest(OrderOn(aC2, aC1), eqAll).OrderBy {
		t.Fatal("extension of ORDER BY not interesting")
	}
	// A mismatched leading column is not.
	if sc.OrderInterest(OrderOn(aC1, aC2), eqAll).OrderBy {
		t.Fatal("non-prefix order claimed ORDER BY interest")
	}
}

func TestOrderInterestGroupBy(t *testing.T) {
	cb := catalog.NewBuilder("gb")
	cb.Table("a", 100).Column("g1", 10).Column("g2", 10).Column("x", 10)
	cat := cb.Build()
	qb := query.NewBuilder("gb", cat)
	qb.AddTable("a", "")
	qb.GroupBy(qb.Col("a", "g1"), qb.Col("a", "g2"))
	blk := qb.MustBuild()
	sc := NewScope(blk)
	s := blk.AllTables()
	eq := blk.EquivWithin(s)

	g1, g2, x := query.ColID(0), query.ColID(1), query.ColID(2)
	// Any permutation of a subset of the grouping columns is interesting.
	for _, o := range []Order{OrderOn(g1), OrderOn(g2, g1), OrderOn(g1, g2)} {
		if !sc.OrderInterest(o, eq).GroupBy {
			t.Errorf("order %v not group-by interesting", o)
		}
	}
	if sc.OrderInterest(OrderOn(g1, x), eq).GroupBy {
		t.Error("order with non-grouping column claimed group-by interest")
	}
}

func TestEagerBaseOrdersFigure3(t *testing.T) {
	// Figure 3(a): without ORDER BY, table a has one interesting order
	// (a.c1); with ORDER BY a.c2 (Figure 3b) it gains (a.c2).
	blk, sc := fixture(t, false)
	eqA := blk.EquivWithin(bitset.Of(0))
	got := sc.EagerBaseOrders(0, eqA, new(BaseOrders))
	if len(got) != 1 || !got[0].EqualUnder(OrderOn(aC1), eqA) {
		t.Fatalf("eager orders of a = %v, want [(a.c1)]", got)
	}

	blkOB, scOB := fixture(t, true)
	eqA = blkOB.EquivWithin(bitset.Of(0))
	got = scOB.EagerBaseOrders(0, eqA, new(BaseOrders))
	if len(got) != 2 {
		t.Fatalf("eager orders of a with ORDER BY = %v, want 2", got)
	}
	// Table b joins to both a and c: two interesting orders.
	eqB := blk.EquivWithin(bitset.Of(1))
	if got := sc.EagerBaseOrders(1, eqB, new(BaseOrders)); len(got) != 2 {
		t.Fatalf("eager orders of b = %v, want 2", got)
	}
}

func TestEagerBaseOrdersCompositeJoin(t *testing.T) {
	// Two predicates between the same pair produce both single-column
	// orders and the composite order.
	cb := catalog.NewBuilder("comp")
	cb.Table("r", 100).Column("a", 10).Column("b", 10)
	cb.Table("s", 100).Column("a", 10).Column("b", 10)
	cat := cb.Build()
	qb := query.NewBuilder("comp", cat)
	qb.AddTable("r", "")
	qb.AddTable("s", "")
	qb.JoinEq("r", "a", "s", "a")
	qb.JoinEq("r", "b", "s", "b")
	blk := qb.MustBuild()
	sc := NewScope(blk)
	eq := blk.EquivWithin(bitset.Of(0))
	got := sc.EagerBaseOrders(0, eq, new(BaseOrders))
	if len(got) != 3 { // (r.a), (r.b), (r.a,r.b)
		t.Fatalf("eager orders = %v, want 3", got)
	}
}

func TestNaturalBaseOrdersFromIndexes(t *testing.T) {
	cb := catalog.NewBuilder("ix")
	cb.Table("r", 100).Column("a", 10).Column("b", 10).
		Index("pk", true, "a").Index("ab", false, "a", "b")
	cat := cb.Build()
	qb := query.NewBuilder("ix", cat)
	qb.AddTable("r", "")
	blk := qb.MustBuild()
	sc := NewScope(blk)
	eq := blk.EquivWithin(bitset.Of(0))
	got := sc.NaturalBaseOrders(0, eq, new(BaseOrders))
	if len(got) != 2 {
		t.Fatalf("natural orders = %v, want 2", got)
	}
	if got[0].Len() != 1 || got[1].Len() != 2 {
		t.Fatalf("natural order shapes = %v", got)
	}
}

func TestNaturalBasePartition(t *testing.T) {
	cb := catalog.NewBuilder("pt")
	cb.Table("r", 100).Column("a", 10).Column("b", 10).Partition(4, "a")
	cb.Table("s", 100).Column("a", 10)
	cat := cb.Build()
	qb := query.NewBuilder("pt", cat)
	qb.AddTable("r", "")
	qb.AddTable("s", "")
	qb.JoinEq("r", "a", "s", "a")
	blk := qb.MustBuild()
	sc := NewScope(blk)

	p, ok := sc.NaturalBasePartition(0)
	if !ok || p.Nodes != 4 || len(p.Cols) != 1 {
		t.Fatalf("partition of r = %v, %v", p, ok)
	}
	if _, ok := sc.NaturalBasePartition(1); ok {
		t.Fatal("unpartitioned table returned a partition")
	}
}

func TestJoinColsBetween(t *testing.T) {
	_, sc := fixture(t, false)
	oc, ic := sc.Block().AppendJoinCols(bitset.Of(0), bitset.Of(1), nil, nil)
	if len(oc) != 1 || oc[0] != aC1 || ic[0] != bC1 {
		t.Fatalf("join cols a-b: outer %v inner %v", oc, ic)
	}
	oc, ic = sc.Block().AppendJoinCols(bitset.Of(2), bitset.Of(0, 1), nil, nil)
	if len(oc) != 1 || oc[0] != cC2 || ic[0] != bC2 {
		t.Fatalf("join cols c-(ab): outer %v inner %v", oc, ic)
	}
	if oc, _ := sc.Block().AppendJoinCols(bitset.Of(0), bitset.Of(2), nil, nil); len(oc) != 0 {
		t.Fatal("a-c have no direct join columns")
	}
}

func TestPartitionUseful(t *testing.T) {
	blk, sc := fixture(t, false)
	sA := bitset.Of(0)
	eqA := blk.EquivWithin(sA)
	if !sc.PartitionUseful(PartitionOn(4, aC1), eqA) {
		t.Fatal("partition on future join column not useful")
	}
	if sc.PartitionUseful(PartitionOn(4, aC2), eqA) {
		t.Fatal("partition on unused column useful")
	}
	if sc.PartitionUseful(Partition{}, eqA) {
		t.Fatal("don't-care partition useful")
	}
}

func TestGenerationPolicyString(t *testing.T) {
	if Eager.String() != "eager" || Lazy.String() != "lazy" {
		t.Fatal("policy names wrong")
	}
}

func TestStrings(t *testing.T) {
	if OrderOn(aC1).String() == "" || (Order{}).String() != "DC" {
		t.Fatal("order String wrong")
	}
	if PartitionOn(4, aC1).String() == "" || (Partition{}).String() != "DC" {
		t.Fatal("partition String wrong")
	}
	for m := JoinMethod(0); m < NumJoinMethods; m++ {
		if m.String() == "JOIN?" {
			t.Fatal("join method String wrong")
		}
	}
	for _, p := range []Propagation{Full, Partial, None} {
		if p.String() == "propagation?" {
			t.Fatal("propagation String wrong")
		}
	}
}

// Property: PrefixOfUnder implies SetSubsetOfUnder (prefix subsumption is
// strictly stronger than set subsumption).
func TestQuickPrefixImpliesSet(t *testing.T) {
	blk, _ := fixture(t, false)
	eq := blk.EquivWithin(blk.AllTables())
	mk := func(raw []uint8) Order {
		cols := make([]query.ColID, 0, len(raw))
		for _, r := range raw {
			cols = append(cols, query.ColID(r%6))
		}
		return Order{Cols: cols}
	}
	f := func(a, b []uint8) bool {
		if len(a) > 5 || len(b) > 5 {
			return true
		}
		oa, ob := mk(a), mk(b)
		if oa.PrefixOfUnder(ob, eq) && !oa.SetSubsetOfUnder(ob, eq) {
			return false
		}
		// Equality must imply mutual prefix subsumption.
		if oa.EqualUnder(ob, eq) && (!oa.PrefixOfUnder(ob, eq) || !ob.PrefixOfUnder(oa, eq)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: OrderList.Add is idempotent and Key-consistent — adding an
// equivalent order twice never grows the list, and Contains agrees with Key
// equality.
func TestQuickOrderListConsistency(t *testing.T) {
	blk, _ := fixture(t, false)
	eq := blk.EquivWithin(blk.AllTables())
	f := func(raw []uint8) bool {
		var l OrderList
		keys := map[string]bool{}
		for _, r := range raw {
			o := OrderOn(query.ColID(r % 6))
			added := l.Add(o, eq)
			k := o.Key(eq)
			if added == keys[k] {
				return false // added a duplicate or refused a new key
			}
			keys[k] = true
		}
		return l.Len() == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
