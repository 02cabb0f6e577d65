package workload

import (
	"testing"

	"cote/internal/core"
	"cote/internal/opt"
	"cote/internal/query"

	costpkg "cote/internal/cost"
)

// allWorkloads returns every workload in both serial and parallel variants.
func allWorkloads(tb testing.TB) []*Workload {
	tb.Helper()
	return []*Workload{
		Linear(1), Linear(4),
		Star(1), Star(4),
		Random(42, 12, 10, 1), Random(42, 12, 10, 4),
		Real1(1), Real1(4),
		Real2(1), Real2(4),
		TPCH(1), TPCH(4),
	}
}

func TestWorkloadShapes(t *testing.T) {
	cases := map[string]int{
		"linear_s": 15, "linear_p": 15,
		"star_s": 15, "star_p": 15,
		"random_s": 12, "random_p": 12,
		"real1_s": 8, "real1_p": 8,
		"real2_s": 17, "real2_p": 17,
		"tpch_s": 7, "tpch_p": 7,
	}
	for _, w := range allWorkloads(t) {
		want, ok := cases[w.Name]
		if !ok {
			t.Fatalf("unexpected workload %q", w.Name)
		}
		if len(w.Queries) != want {
			t.Errorf("%s: %d queries, want %d", w.Name, len(w.Queries), want)
		}
		for _, q := range w.Queries {
			if q.Block == nil || q.Name == "" {
				t.Fatalf("%s: malformed query %+v", w.Name, q)
			}
		}
	}
}

func TestSyntheticBatchStructure(t *testing.T) {
	w := Star(1)
	// Three batches of five with fixed tables per batch.
	wantTables := []int{6, 6, 6, 6, 6, 8, 8, 8, 8, 8, 10, 10, 10, 10, 10}
	for i, q := range w.Queries {
		if q.Block.NumTables() != wantTables[i] {
			t.Errorf("query %d: %d tables, want %d", i, q.Block.NumTables(), wantTables[i])
		}
	}
	// Within a batch, predicate count grows 1..5 (before transitive
	// closure, which stars don't trigger: satellites share no columns).
	for i := 0; i < 5; i++ {
		q := w.Queries[i].Block
		if got := len(q.JoinPreds); got != 5*(i+1) {
			t.Errorf("star batch-1 query %d: %d preds, want %d", i, got, 5*(i+1))
		}
	}
}

func TestLinearHasClosedFormJoins(t *testing.T) {
	w := Linear(1)
	for _, q := range w.Queries[:5] { // the 6-table batch
		est, err := core.EstimatePlans(q.Block, core.Options{Level: opt.LevelHigh, CartesianPolicy: 1 /* never */})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := core.ClosedFormJoins("linear", 6)
		if est.Pairs != want {
			t.Fatalf("%s: %d pairs, closed form %d", q.Name, est.Pairs, want)
		}
	}
}

func TestRandomWorkloadDeterministic(t *testing.T) {
	a := Random(7, 6, 9, 1)
	b := Random(7, 6, 9, 1)
	for i := range a.Queries {
		qa, qb := a.Queries[i].Block, b.Queries[i].Block
		if qa.NumTables() != qb.NumTables() || len(qa.JoinPreds) != len(qb.JoinPreds) {
			t.Fatalf("query %d differs across runs with the same seed", i)
		}
	}
	c := Random(8, 6, 9, 1)
	same := true
	for i := range a.Queries {
		if a.Queries[i].Block.NumTables() != c.Queries[i].Block.NumTables() ||
			len(a.Queries[i].Block.JoinPreds) != len(c.Queries[i].Block.JoinPreds) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestRandomWorkloadPrefersFKJoins(t *testing.T) {
	w := Random(42, 12, 10, 1)
	sawSub := false
	for _, q := range w.Queries {
		for _, ref := range q.Block.Tables {
			if ref.IsDerived() {
				sawSub = true
			}
		}
		// Every explicit join predicate follows an FK edge by construction;
		// assert connectivity as the observable consequence.
		if !q.Block.IsConnected(q.Block.AllTables()) {
			// Derived-table merges may attach via the fallback; still must
			// be connected.
			t.Fatalf("%s: disconnected join graph", q.Name)
		}
	}
	if !sawSub {
		t.Fatal("random workload never produced a subquery merge")
	}
}

func TestReal2HeadlineQuery(t *testing.T) {
	w := Real2(1)
	q := w.Queries[7].Block // real2_08
	// 14 table references in total across the outer block and its views.
	total := 0
	views := 0
	for _, b := range q.Blocks() {
		for _, ref := range b.Tables {
			if ref.IsDerived() {
				views++
			} else {
				total++
			}
		}
	}
	if total != 14 {
		t.Fatalf("headline query has %d base tables, want 14", total)
	}
	if views != 3 {
		t.Fatalf("headline query has %d views, want 3", views)
	}
	locals := 0
	for _, b := range q.Blocks() {
		for _, lp := range b.LocalPreds {
			if !lp.Implied {
				locals++
			}
		}
	}
	if locals != 21 {
		t.Fatalf("headline query has %d local predicates, want 21", locals)
	}
	if len(q.GroupBy) != 9 {
		t.Fatalf("headline query has %d group-by columns, want 9", len(q.GroupBy))
	}
	// Group-by columns overlap join columns.
	joinCols := map[query.ColID]bool{}
	for _, jp := range q.JoinPreds {
		joinCols[jp.Left] = true
		joinCols[jp.Right] = true
	}
	overlap := 0
	for _, g := range q.GroupBy {
		if joinCols[g] {
			overlap++
		}
	}
	if overlap < 5 {
		t.Fatalf("only %d of 9 group-by columns overlap join columns", overlap)
	}
}

func TestTPCHWorkloadShapes(t *testing.T) {
	w := TPCH(1)
	// Q8 (index 3) joins 8 tables.
	if got := w.Queries[3].Block.NumTables(); got != 8 {
		t.Fatalf("Q8 has %d tables, want 8", got)
	}
	// Q2 (index 0) carries a correlated subquery.
	corr := false
	for _, ref := range w.Queries[0].Block.Tables {
		if ref.IsDerived() && ref.Correlated {
			corr = true
		}
	}
	if !corr {
		t.Fatal("Q2 lost its correlated subquery")
	}
	// Q7 self-joins nation.
	n := 0
	for _, ref := range w.Queries[2].Block.Tables {
		if ref.Table != nil && ref.Table.Name == "nation" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("Q7 has %d nation references, want 2", n)
	}
}

// TestEveryQueryCompilesAndEstimates is the workhorse integration test: all
// ~120 workload queries must survive real optimization and plan estimation,
// serial and parallel alike.
func TestEveryQueryCompilesAndEstimates(t *testing.T) {
	for _, w := range allWorkloads(t) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := costpkg.Serial
			if w.Name[len(w.Name)-1] == 'p' {
				cfg = costpkg.Parallel4
			}
			for _, q := range w.Queries {
				res, err := opt.Optimize(q.Block, opt.Options{Level: opt.LevelHighInner2, Config: cfg})
				if err != nil {
					t.Fatalf("%s: optimize: %v", q.Name, err)
				}
				if res.Plan == nil || res.Plan.Cost <= 0 {
					t.Fatalf("%s: no plan", q.Name)
				}
				est, err := core.EstimatePlans(q.Block, core.Options{Level: opt.LevelHighInner2, Config: cfg})
				if err != nil {
					t.Fatalf("%s: estimate: %v", q.Name, err)
				}
				if est.Counts.Total() <= 0 {
					t.Fatalf("%s: zero plan estimate", q.Name)
				}
				actual := core.CountsFrom(res.TotalCounters())
				if actual.Total() <= 0 {
					t.Fatalf("%s: zero actual plans", q.Name)
				}
				// Order of magnitude agreement on every single query; the
				// experiment harness asserts the paper's tighter bounds on
				// workload averages.
				ratio := float64(est.Counts.Total()) / float64(actual.Total())
				if ratio < 0.25 || ratio > 4 {
					t.Errorf("%s: estimate %d vs actual %d (ratio %.2f)",
						q.Name, est.Counts.Total(), actual.Total(), ratio)
				}
			}
		})
	}
}

func TestWorkloadNamesFollowPaperConvention(t *testing.T) {
	if Linear(1).Name != "linear_s" || Linear(4).Name != "linear_p" {
		t.Fatal("suffix convention broken")
	}
}
