package cost

import (
	"math"
	"testing"
	"testing/quick"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
)

func TestSynthesizeHistogramDeterministic(t *testing.T) {
	a := SynthesizeHistogram(10_000, 100, "t.a")
	b := SynthesizeHistogram(10_000, 100, "t.a")
	if *a != *b {
		t.Fatal("same seed produced different histograms")
	}
	c := SynthesizeHistogram(10_000, 100, "t.b")
	if *a == *c {
		t.Fatal("different seeds produced identical histograms")
	}
	if a.NDV() != 100 || a.Rows() != 10_000 {
		t.Fatal("histogram metadata wrong")
	}
}

func TestHistogramSelEqNearUniform(t *testing.T) {
	h := SynthesizeHistogram(1_000_000, 1000, "col")
	sel := h.SelEq()
	// Mildly skewed around 1/NDV: within a factor of 3.
	if sel < 1.0/3000 || sel > 3.0/1000 {
		t.Fatalf("SelEq = %v, want near 1/1000", sel)
	}
}

func TestHistogramSelRange(t *testing.T) {
	h := SynthesizeHistogram(100_000, 500, "col")
	if got := h.SelRange(0); got != 0 {
		t.Fatalf("SelRange(0) = %v", got)
	}
	if got := h.SelRange(1); got != 1 {
		t.Fatalf("SelRange(1) = %v", got)
	}
	mid := h.SelRange(0.5)
	if mid <= 0.2 || mid >= 0.8 {
		t.Fatalf("SelRange(0.5) = %v, want mid-range", mid)
	}
	if h.SelRange(0.3) > h.SelRange(0.6) {
		t.Fatal("SelRange not monotone")
	}
}

// Property: SelRange is monotone nondecreasing and bounded in [0, 1].
func TestQuickSelRangeMonotone(t *testing.T) {
	h := SynthesizeHistogram(50_000, 700, "q")
	f := func(a, b float64) bool {
		fa, fb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if fa > fb {
			fa, fb = fb, fa
		}
		sa, sb := h.SelRange(fa), h.SelRange(fb)
		return sa >= 0 && sb <= 1 && sa <= sb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestYao(t *testing.T) {
	// Fetching all rows touches all pages.
	if got := yao(1000, 25, 1000); got != 25 {
		t.Fatalf("yao all rows = %v", got)
	}
	// Fetching nothing touches nothing.
	if got := yao(1000, 25, 0); got != 0 {
		t.Fatalf("yao zero rows = %v", got)
	}
	// Fetching a few random rows touches roughly that many pages.
	got := yao(100_000, 2500, 10)
	if got < 8 || got > 10 {
		t.Fatalf("yao(10 of 100k) = %v, want ~10", got)
	}
	// Monotone in k.
	if yao(1000, 25, 100) > yao(1000, 25, 500) {
		t.Fatal("yao not monotone in k")
	}
}

// estimators builds full- and simple-mode estimators over a PK-FK pair.
func estimators(t *testing.T) (*query.Block, *Estimator, *Estimator) {
	t.Helper()
	cb := catalog.NewBuilder("c")
	// PK table with understated NDV stats: full mode knows the unique index
	// makes pk.id effectively row-count distinct; simple mode trusts the
	// stale NDV.
	cb.Table("pk", 10_000).Column("id", 8_000).Column("v", 100).Index("pk_pk", true, "id")
	cb.Table("fk", 100_000).Column("ref", 8_000).Column("w", 50)
	cat := cb.Build()

	qb := query.NewBuilder("q", cat)
	qb.AddTable("fk", "")
	qb.AddTable("pk", "")
	qb.JoinEq("fk", "ref", "pk", "id")
	blk := qb.MustBuild()
	return blk, NewEstimator(blk, Full), NewEstimator(blk, Simple)
}

func TestCardModesDiverge(t *testing.T) {
	blk, full, simple := estimators(t)
	s := blk.AllTables()
	cf, cs := full.Card(s), simple.Card(s)
	// Full mode: FK-PK join, output = |fk| = 100k (unique index upgrades
	// NDV to 10k and the key cap bounds by the FK side).
	if cf > 100_000*1.01 || cf < 100_000*0.9 {
		t.Fatalf("full card = %v, want ~100000", cf)
	}
	// Simple mode: 100k * 10k / 8k = 125k — the overestimate the paper
	// attributes to ignoring keys.
	if cs <= cf {
		t.Fatalf("simple card %v not above full card %v", cs, cf)
	}
	if math.Abs(cs-125_000) > 1 {
		t.Fatalf("simple card = %v, want 125000", cs)
	}
}

func TestCardMemoized(t *testing.T) {
	blk, full, _ := estimators(t)
	s := blk.AllTables()
	a := full.Card(s)
	if b := full.Card(s); a != b {
		t.Fatal("memoized Card returned different values")
	}
	if full.Mode() != Full || Full.String() != "full" || Simple.String() != "simple" {
		t.Fatal("mode accessors wrong")
	}
}

func TestFilteredCardRespectsLocalPreds(t *testing.T) {
	cb := catalog.NewBuilder("c")
	cb.Table("t", 10_000).Column("a", 100).Column("b", 10)
	cat := cb.Build()
	qb := query.NewBuilder("q", cat)
	qb.AddTable("t", "")
	qb.Filter(qb.Col("t", "a"), query.Eq, 0) // 1/100
	qb.Filter(qb.Col("t", "b"), query.Lt, 0) // 1/3
	blk := qb.MustBuild()

	simple := NewEstimator(blk, Simple)
	want := 10_000.0 / 100 / 3
	if got := simple.FilteredCard(0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("simple filtered card = %v, want %v", got, want)
	}
	full := NewEstimator(blk, Full)
	got := full.FilteredCard(0)
	// Histogram-based: near but typically not equal — the paper's
	// "inconsistent cardinality estimation" gap.
	if got <= 0 || got > 10_000 {
		t.Fatalf("full filtered card = %v out of range", got)
	}
	if ratio := got / want; ratio < 0.2 || ratio > 5 {
		t.Fatalf("full/simple filtered card ratio = %v, want same ballpark", ratio)
	}
}

// TestEstimatorRows pins the estimator's per-run row table: a base table
// reads its RowCount; a derived table reads the output cardinality the run
// gave its child block, and 1 when the run gave none — in both modes, and
// with the same block serving runs that disagree.
func TestEstimatorRows(t *testing.T) {
	cb := catalog.NewBuilder("c")
	cb.Table("r", 1_000).Column("a", 100)
	cb.Table("s", 50_000).Column("a", 100)
	cat := cb.Build()
	child := query.NewBuilder("ch", cat)
	child.AddTable("s", "")
	child.SelectCols(child.Col("s", "a"))
	childBlk := child.MustBuild()
	qb := query.NewBuilder("q", cat)
	qb.AddTable("r", "")
	dt := qb.AddDerived(childBlk, "v", false)
	qb.Join(qb.Col("r", "a"), qb.ColByTableIndex(dt, 0), query.Eq)
	blk := qb.MustBuild()

	other := query.NewBuilder("other", cat)
	other.AddTable("s", "")
	otherBlk := other.MustBuild()

	for _, mode := range []Mode{Simple, Full} {
		for _, tc := range []struct {
			name  string
			done  []*query.Block
			cards []float64
			want  float64
		}{
			{"no run value", nil, nil, 1},
			{"another block's value", []*query.Block{otherBlk}, []float64{77}, 1},
			{"run value", []*query.Block{childBlk}, []float64{321}, 321},
			{"second run value", []*query.Block{otherBlk, childBlk}, []float64{77, 42}, 42},
		} {
			e := NewEstimator(blk, mode)
			e.Reset(blk, mode, tc.done, tc.cards)
			if got := e.Rows(0); got != 1_000 {
				t.Errorf("%v %s: base table rows = %v, want 1000", mode, tc.name, got)
			}
			if got := e.Rows(dt); got != tc.want {
				t.Errorf("%v %s: derived table rows = %v, want %v", mode, tc.name, got, tc.want)
			}
			if got := e.FilteredCard(dt); got != tc.want {
				t.Errorf("%v %s: derived filtered card = %v, want %v", mode, tc.name, got, tc.want)
			}
		}
	}
}

func TestCardFloor(t *testing.T) {
	cb := catalog.NewBuilder("c")
	cb.Table("t", 10).Column("a", 10)
	cat := cb.Build()
	qb := query.NewBuilder("q", cat)
	qb.AddTable("t", "")
	qb.Filter(qb.Col("t", "a"), query.Eq, 0.0001)
	blk := qb.MustBuild()
	e := NewEstimator(blk, Simple)
	if got := e.Card(bitset.Of(0)); got < 0.01 {
		t.Fatalf("card %v under floor", got)
	}
}

func TestJoinSelNonEquality(t *testing.T) {
	cb := catalog.NewBuilder("c")
	cb.Table("r", 100).Column("a", 10)
	cb.Table("s", 100).Column("a", 10)
	cat := cb.Build()
	qb := query.NewBuilder("q", cat)
	qb.AddTable("r", "")
	qb.AddTable("s", "")
	qb.Join(qb.Col("r", "a"), qb.Col("s", "a"), query.Lt)
	blk := qb.MustBuild()
	e := NewEstimator(blk, Simple)
	if got := e.JoinSel(0); got != 1.0/3 {
		t.Fatalf("non-eq join sel = %v, want 1/3", got)
	}
}

func TestScanCostScalesWithRows(t *testing.T) {
	m := new(HitMemo)
	small := Serial.ScanCost(m, 1_000, 1_000)
	big := Serial.ScanCost(m, 1_000_000, 1_000_000)
	if small >= big {
		t.Fatal("scan cost not increasing with rows")
	}
	// Parallel divides the work.
	par := Parallel4.ScanCost(m, 1_000_000, 1_000_000)
	if par >= big {
		t.Fatal("parallel scan not cheaper than serial")
	}
}

func TestIndexVsScanCrossover(t *testing.T) {
	m := new(HitMemo)
	rows := 1_000_000.0
	// Very selective: index wins.
	if ix, sc := Serial.IndexScanCost(m, rows, 10), Serial.ScanCost(m, rows, 10); ix >= sc {
		t.Fatalf("selective index scan %v not under table scan %v", ix, sc)
	}
	// Fetch everything: scan wins.
	if ix, sc := Serial.IndexScanCost(m, rows, rows), Serial.ScanCost(m, rows, rows); ix <= sc {
		t.Fatalf("full-fetch index scan %v not above table scan %v", ix, sc)
	}
}

func TestSortCostSuperlinear(t *testing.T) {
	a := Serial.SortCost(10_000)
	b := Serial.SortCost(20_000)
	if b <= 2*a*0.9 {
		t.Fatalf("sort cost not superlinear: %v vs %v", a, b)
	}
}

func TestJoinCostSanity(t *testing.T) {
	m := new(HitMemo)
	// Hash join should beat nested loops on large unordered inputs.
	oc, or := Serial.ScanCost(m, 1_000_000, 1_000_000), 1_000_000.0
	ic, ir := Serial.ScanCost(m, 500_000, 500_000), 500_000.0
	nl := Serial.NLJNCost(m, oc, or, ic, ir, 1_000_000)
	hs := Serial.HSJNCost(m, oc, or, ic, ir, 1_000_000)
	if hs >= nl {
		t.Fatalf("hash join %v not under nested loops %v on big inputs", hs, nl)
	}
	// Merge join (inputs pre-sorted) beats hash join.
	mg := Serial.MGJNCost(oc, or, ic, ir, 1_000_000)
	if mg >= hs {
		t.Fatalf("merge join %v not under hash join %v on sorted inputs", mg, hs)
	}
	// Tiny inner: nested loops becomes competitive with hash join.
	nlTiny := Serial.NLJNCost(m, oc, or, Serial.ScanCost(m, 10, 10), 10, 1_000_000)
	hsTiny := Serial.HSJNCost(m, oc, or, Serial.ScanCost(m, 10, 10), 10, 1_000_000)
	if nlTiny > hsTiny*3 {
		t.Fatalf("NLJN with tiny inner (%v) should be near HSJN (%v)", nlTiny, hsTiny)
	}
}

func TestRepartitionCost(t *testing.T) {
	if got := Serial.RepartitionCost(1_000_000); got != 0 {
		t.Fatalf("serial repartition cost = %v, want 0", got)
	}
	if got := Parallel4.RepartitionCost(1_000_000); got <= 0 {
		t.Fatal("parallel repartition free")
	}
	if Parallel4.RepartitionCost(1_000) >= Parallel4.RepartitionCost(1_000_000) {
		t.Fatal("repartition cost not increasing")
	}
}

func TestGroupByCost(t *testing.T) {
	ordered := Serial.GroupByCost(1_000_000, 100, true)
	hashed := Serial.GroupByCost(1_000_000, 100, false)
	if ordered >= hashed {
		t.Fatalf("streaming group-by %v not under hash group-by %v", ordered, hashed)
	}
}

// The join searches skip candidates on the strength of hitCeil, so it must
// bound the buffer model at every positive argument they can pass: a
// log-spaced sweep of the whole float range, and densely where arguments
// actually fall — whole page counts, and the row-derived ones NLJNTerms adds
// block sizes in (multiples of 1/rowsPerPage).
func TestHitCeilBoundsBufferHitRatio(t *testing.T) {
	hi, at := 0.0, 0.0
	check := func(pages float64) {
		r := bufferHitRatio(pages)
		if !(r >= 0 && r <= hitCeil) {
			t.Fatalf("hit ratio %v for %v pages out of [0, hitCeil = %v]", r, pages, hitCeil)
		}
		if r > hi {
			hi, at = r, pages
		}
	}
	for pages := 1e-300; pages <= 1e300; pages *= 1.001 {
		check(pages)
	}
	for n := 1; n <= 3_000_000; n++ {
		check(float64(n))
		check(float64(n) / rowsPerPage)
	}
	t.Logf("largest hit ratio %v at %v pages", hi, at)
	if bufferHitRatio(10) <= bufferHitRatio(1e8) {
		t.Fatal("hit ratio should fall as footprint grows")
	}
}

// Property: all operator costs are nonnegative and finite for sane inputs.
func TestQuickCostsFinite(t *testing.T) {
	m := new(HitMemo)
	f := func(a, b uint32) bool {
		or := float64(a%10_000_000) + 1
		ir := float64(b%10_000_000) + 1
		for _, cfg := range []*Config{Serial, Parallel4} {
			costs := []float64{
				cfg.ScanCost(m, or, ir),
				cfg.IndexScanCost(m, or, math.Min(or, ir)),
				cfg.SortCost(or),
				cfg.NLJNCost(m, 1, or, 1, ir, or),
				cfg.MGJNCost(1, or, 1, ir, or),
				cfg.HSJNCost(m, 1, or, 1, ir, or),
				cfg.RepartitionCost(or),
				cfg.GroupByCost(or, ir, a%2 == 0),
			}
			for _, c := range costs {
				if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
