package enum

import (
	"fmt"
	"math/rand"
	"testing"

	"cote/internal/catalog"
	"cote/internal/cost"
	"cote/internal/memo"
	"cote/internal/query"
)

// The composed-sides oracle: every MEMO entry the enumerator creates carries
// predicate sides ORed together from its two inputs and equivalence classes
// built from them. Both must equal what the block computes from scratch —
// the OR of the entry's tables' incidence, and EquivWithin over its tables.

// CheckComposedEntries fails t at the first entry of mem whose sides or
// classes differ from the from-scratch ones. allPairs also compares Same on
// every pair of columns; otherwise each column is compared with its
// representative and with the column before it.
func CheckComposedEntries(t testing.TB, label string, blk *query.Block, mem *memo.Memo, allPairs bool) {
	t.Helper()
	for k := 1; k <= blk.NumTables(); k++ {
		for _, e := range mem.OfSize(k) {
			checkComposedEntry(t, label, blk, mem, e, allPairs)
		}
	}
}

func checkComposedEntry(t testing.TB, label string, blk *query.Block, mem *memo.Memo, e *memo.Entry, allPairs bool) {
	t.Helper()
	got := mem.Sides(e)
	if len(got) != blk.PredWords() {
		t.Fatalf("%s: entry %v has %d side words, the block %d", label, e.Tables, len(got), blk.PredWords())
	}
	for w := range got {
		var want [2]uint64
		for tb := e.Tables.Next(0); tb >= 0; tb = e.Tables.Next(tb + 1) {
			in := blk.TableSides(tb)[w]
			want[0] |= in[0]
			want[1] |= in[1]
		}
		if got[w] != want {
			t.Fatalf("%s: entry %v side word %d = %x, its tables' walk %x", label, e.Tables, w, got[w], want)
		}
	}
	want := blk.EquivWithin(e.Tables)
	for a := query.ColID(0); int(a) < len(blk.Columns); a++ {
		if g, w := e.Equiv.Rep(a), want.Rep(a); g != w {
			t.Fatalf("%s: entry %v: Rep(%d) = %d, EquivWithin %d", label, e.Tables, a, g, w)
		}
		if g, w := e.Equiv.FutureJoin(a), want.FutureJoin(a); g != w {
			t.Fatalf("%s: entry %v: FutureJoin(%d) = %v, EquivWithin %v", label, e.Tables, a, g, w)
		}
		if !e.Equiv.Same(a, want.Rep(a)) {
			t.Fatalf("%s: entry %v: column %d not Same as its representative %d", label, e.Tables, a, want.Rep(a))
		}
		if a > 0 && e.Equiv.Same(a, a-1) != want.Same(a, a-1) {
			t.Fatalf("%s: entry %v: Same(%d, %d) = %v, EquivWithin %v", label, e.Tables, a, a-1, !want.Same(a, a-1), want.Same(a, a-1))
		}
		if !allPairs {
			continue
		}
		for b := query.ColID(0); b < a; b++ {
			if g, w := e.Equiv.Same(a, b), want.Same(a, b); g != w {
				t.Fatalf("%s: entry %v: Same(%d, %d) = %v, EquivWithin %v", label, e.Tables, a, b, g, w)
			}
		}
	}
}

// TestComposedSidesDifferential checks every entry of every run of the
// differential suite — each graph under all 27 knob combinations, every
// column pair under the full search space, which creates every entry any
// combination does — and then a 12-table clique whose 132 predicates need
// three words.
func TestComposedSidesDifferential(t *testing.T) {
	forEachCombination(t, func(label string, blk *query.Block, opts Options) {
		_, _, mem, _ := runSerial(blk, opts)
		full := opts == Options{Cartesian: CartesianAlways}
		CheckComposedEntries(t, label, blk, mem, full)
	})

	blk := multiWordClique(t, 12, 2, 11)
	if len(blk.JoinPreds) != 132 || blk.PredWords() != 3 {
		t.Fatalf("%d predicates in %d words, want 132 in 3", len(blk.JoinPreds), blk.PredWords())
	}
	for _, opts := range []Options{{}, {Shape: LeftDeep}, {Shape: ZigZag, CompositeInnerLimit: 2}} {
		label := fmt.Sprintf("%s shape=%v lim=%d", blk.Name, opts.Shape, opts.CompositeInnerLimit)
		_, _, mem, err := runSerial(blk, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if opts.Shape == Bushy && mem.NumEntries() != 1<<12-1 {
			t.Fatalf("%s: %d entries, want every one of the %d subsets", label, mem.NumEntries(), 1<<12-1)
		}
		CheckComposedEntries(t, label, blk, mem, false)
	}
}

// multiWordClique builds an n-table clique with per predicates on every
// edge, every nonEqEvery-th of them a < rather than an = — the multi-word
// block of the predicate-set differential in package query.
func multiWordClique(tb testing.TB, n, per, nonEqEvery int) *query.Block {
	tb.Helper()
	name := fmt.Sprintf("clique%dx%d", n, per)
	cb := catalog.NewBuilder(name)
	for i := 0; i < n; i++ {
		tab := cb.Table(tname(i), 1000)
		for c := 0; c < n*per; c++ {
			tab.Column(colname(c), float64(10+c))
		}
	}
	qb := query.NewBuilder(name, cb.Build())
	for i := 0; i < n; i++ {
		qb.AddTable(tname(i), "")
	}
	k := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for j := 0; j < per; j++ {
				op := query.Eq
				if k++; k%nonEqEvery == 0 {
					op = query.Lt
				}
				qb.Join(qb.ColByTableIndex(a, b*per+j), qb.ColByTableIndex(b, a*per+j), op)
			}
		}
	}
	blk, err := qb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return blk
}

// TestComposedSidesSurviveReuse runs two blocks of different predicate
// widths through one MEMO in turn, as a pooled workspace does, and checks
// every entry after each run.
func TestComposedSidesSurviveReuse(t *testing.T) {
	wide := multiWordClique(t, 7, 7, 5) // 147 predicates, three words
	narrow := buildDiffBlock(t, genGraph("chain", 9, rand.New(rand.NewSource(9))))
	mem := memo.New(0)
	for i, blk := range []*query.Block{narrow, wide, narrow, wide} {
		mem.Reset(blk.NumTables())
		if _, err := New(blk, mem, cost.NewEstimator(blk, cost.Simple), Options{}).Run(Hooks{}); err != nil {
			t.Fatal(err)
		}
		CheckComposedEntries(t, fmt.Sprintf("run %d (%s)", i, blk.Name), blk, mem, false)
	}
	if wide.PredWords() != 3 || narrow.PredWords() != 1 {
		t.Fatalf("predicate words %d and %d, want 3 and 1", wide.PredWords(), narrow.PredWords())
	}
}
