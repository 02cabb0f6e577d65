// Top-level benchmarks: one per table/figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment and reports the paper's
// headline quantity as a custom metric (overhead percentage, mean relative
// error, pruning fraction, ...), so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. cmd/cotebench prints the same
// experiments as full per-query tables.
package cote_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cote/internal/core"
	"cote/internal/experiments"
	qfp "cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/service"
	"cote/internal/workload"
)

// workloads and models are cached across benchmarks: calibration compiles
// three workloads and must not be charged to every figure.
var (
	wlOnce sync.Once
	wls    map[string]*workload.Workload
	models map[string]*core.TimeModel
)

func setup(b *testing.B) {
	b.Helper()
	wlOnce.Do(func() {
		wls = map[string]*workload.Workload{
			"linear_s": workload.Linear(1), "linear_p": workload.Linear(4),
			"star_s": workload.Star(1), "star_p": workload.Star(4),
			"random_s": workload.Random(42, 12, 10, 1), "random_p": workload.Random(42, 12, 10, 4),
			"real1_s": workload.Real1(1), "real1_p": workload.Real1(4),
			"real2_s": workload.Real2(1), "real2_p": workload.Real2(4),
			"tpch_s": workload.TPCH(1), "tpch_p": workload.TPCH(4),
			"clique_s": workload.Clique(1), "clique_p": workload.Clique(4),
		}
		models = map[string]*core.TimeModel{}
		for _, v := range []string{"s", "p"} {
			m, err := experiments.TrainModel([]*workload.Workload{
				wls["linear_"+v], wls["star_"+v], wls["random_"+v],
			})
			if err != nil {
				panic(err)
			}
			models[v] = m
		}
	})
}

// --- Figure 2 ---

func BenchmarkFig2_Breakdown(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		row, err := experiments.Fig2Breakdown(wls["real2_s"])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.MGJN, "MGJN%")
		b.ReportMetric(row.NLJN, "NLJN%")
		b.ReportMetric(row.HSJN, "HSJN%")
		b.ReportMetric(row.PlanSaving, "save%")
		b.ReportMetric(row.Other, "other%")
	}
}

// --- Figure 4 ---

func benchOverhead(b *testing.B, wl string) {
	setup(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4Overhead(wls[wl])
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, r := range rows {
			mean += r.Pct
		}
		b.ReportMetric(mean/float64(len(rows)), "overhead%")
	}
}

func BenchmarkFig4a_OverheadLinearSerial(b *testing.B)  { benchOverhead(b, "linear_s") }
func BenchmarkFig4b_OverheadReal2Serial(b *testing.B)   { benchOverhead(b, "real2_s") }
func BenchmarkFig4c_OverheadReal1Parallel(b *testing.B) { benchOverhead(b, "real1_p") }

// --- Figure 5 ---

func benchPlans(b *testing.B, wl string) {
	setup(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5Plans(wls[wl])
		if err != nil {
			b.Fatal(err)
		}
		errs := experiments.PlanErrors(rows)
		b.ReportMetric(errs[props.MGJN].Mean*100, "MGJNerr%")
		b.ReportMetric(errs[props.NLJN].Mean*100, "NLJNerr%")
		b.ReportMetric(errs[props.HSJN].Mean*100, "HSJNerr%")
	}
}

func BenchmarkFig5_StarSerialPlans(b *testing.B)     { benchPlans(b, "star_s") }
func BenchmarkFig5_RandomParallelPlans(b *testing.B) { benchPlans(b, "random_p") }
func BenchmarkFig5_Real1ParallelPlans(b *testing.B)  { benchPlans(b, "real1_p") }

// --- Figure 6 ---

func benchTimes(b *testing.B, wl string) {
	setup(b)
	model := models[wl[len(wl)-1:]]
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6Times(wls[wl], model)
		if err != nil {
			b.Fatal(err)
		}
		s := experiments.TimeErrors(rows)
		b.ReportMetric(s.Mean*100, "meanerr%")
		b.ReportMetric(s.Max*100, "maxerr%")
	}
}

func BenchmarkFig6a_TimeStarSerial(b *testing.B)     { benchTimes(b, "star_s") }
func BenchmarkFig6b_TimeReal1Serial(b *testing.B)    { benchTimes(b, "real1_s") }
func BenchmarkFig6c_TimeReal2Serial(b *testing.B)    { benchTimes(b, "real2_s") }
func BenchmarkFig6d_TimeTPCHParallel(b *testing.B)   { benchTimes(b, "tpch_p") }
func BenchmarkFig6e_TimeRandomParallel(b *testing.B) { benchTimes(b, "random_p") }
func BenchmarkFig6f_TimeReal1Parallel(b *testing.B)  { benchTimes(b, "real1_p") }

// --- Section 4: Ct ratios ---

func BenchmarkCtRatios(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		r := models["s"].Ratio()
		b.ReportMetric(r[props.MGJN], "Cm")
		b.ReportMetric(r[props.NLJN], "Cn")
		b.ReportMetric(r[props.HSJN], "Ch")
	}
}

// --- Section 5.3: join-count baseline ---

func BenchmarkJoinCountBaseline(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.JoinBaseline(wls["star_s"], models["s"])
		if err != nil {
			b.Fatal(err)
		}
		var pe, je float64
		for _, r := range rows {
			pe += r.PlanErr
			je += r.JoinErr
		}
		n := float64(len(rows))
		b.ReportMetric(pe/n*100, "planerr%")
		b.ReportMetric(je/n*100, "joinerr%")
		b.ReportMetric(je/pe, "worse-x")
	}
}

// --- Section 6.1: pilot pass ---

func BenchmarkPilotPassPruning(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PilotPass(wls["real1_s"])
		if err != nil {
			b.Fatal(err)
		}
		var frac float64
		for _, r := range rows {
			frac += r.PrunedFrac
		}
		b.ReportMetric(frac/float64(len(rows))*100, "pruned%")
	}
}

// --- Section 6.2: memory ---

func BenchmarkMemoryEstimation(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MemoryEstimates(wls["star_s"])
		if err != nil {
			b.Fatal(err)
		}
		var pred, act float64
		for _, r := range rows {
			pred += float64(r.PredictedBytes)
			act += float64(r.ActualBytes)
		}
		b.ReportMetric(pred/act, "pred/act")
	}
}

// --- Section 6.2: piggyback ---

func BenchmarkPiggyback(b *testing.B) {
	setup(b)
	levels := []opt.Level{opt.LevelMediumLeftDeep, opt.LevelHighInner2, opt.LevelHigh}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Piggyback(wls["real1_s"], levels); err != nil {
			b.Fatal(err)
		}
	}
}

// --- DESIGN.md section 5: ablations ---

func BenchmarkAblations(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(wls["real1_p"])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MeanErr*100, "sep-err%")
		b.ReportMetric(rows[1].MeanErr*100, "cmp-err%")
		b.ReportMetric(rows[2].MeanErr*100, "every-err%")
	}
}

// --- Micro benchmarks: the raw optimize-vs-estimate asymmetry ---

func BenchmarkOptimizeReal2Headline(b *testing.B) {
	setup(b)
	q := wls["real2_s"].Queries[7] // the 14-table, 3-view query
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(q.Block, opt.Options{Level: experiments.Level}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateReal2Headline(b *testing.B) {
	setup(b)
	q := wls["real2_s"].Queries[7]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimatePlans(q.Block, core.Options{Level: experiments.Level}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEstimateHigh estimates a dense synthetic query at the unrestricted
// bushy level — the largest counting workload per MEMO entry, so it is the
// benchmark most sensitive to the open-addressed index and the slab
// allocator. TestEstimateMeasuredBytesDeterministic pins the durable bytes
// of this query and of the headline one.
func benchEstimateHigh(b *testing.B, wl string, qi int) {
	setup(b)
	q := wls[wl].Queries[qi]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimatePlans(q.Block, core.Options{Level: opt.LevelHigh}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateCliqueHigh(b *testing.B) { benchEstimateHigh(b, "clique_s", 3) } // 8 tables, all pairs joined
func BenchmarkEstimateStarHigh(b *testing.B)   { benchEstimateHigh(b, "star_s", 14) }  // 10 tables, 5 preds/edge

// --- Cross-query fingerprint memoization ---

// BenchmarkFingerprintReal2Headline prices the canonicalize-and-hash step by
// itself: the fixed cost every estimate-cache lookup pays before it can
// skip enumeration, on the same query the cold headline benchmark estimates.
func BenchmarkFingerprintReal2Headline(b *testing.B) {
	setup(b)
	q := wls["real2_s"].Queries[7]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fp := qfp.Of(q.Block); fp.IsZero() {
			b.Fatal("zero fingerprint")
		}
	}
}

// BenchmarkServiceEstimateWarm drives the full service path — parse,
// fingerprint, cache — for a repeated six-way TPC-H join. Everything after
// the first request is a hit, so this is the end-to-end latency of a repeat
// estimate including SQL parsing.
func BenchmarkServiceEstimateWarm(b *testing.B) {
	srv := service.New(service.Config{Workers: 2, CacheCapacity: 64})
	ctx := context.Background()
	req := service.EstimateRequest{
		Catalog: "tpch",
		SQL: `SELECT n_name FROM customer, orders, lineitem, supplier, nation, region
		      WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey
		        AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		        AND c_mktsegment = 'BUILDING' ORDER BY n_name`,
	}
	if _, err := srv.Estimate(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := srv.Estimate(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("repeat request missed the cache")
		}
	}
	b.StopTimer()
	m := srv.Metrics()
	hits, misses := m.CacheHits.Value(), m.CacheMisses.Value()
	b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit%")
}

// batchStatements builds n spellings over two distinct join structures, each
// with a fresh literal, so a batch dedupes them to two enumerations at most.
func batchStatements(n int) []string {
	stmts := make([]string, n)
	for i := range stmts {
		if i%2 == 0 {
			stmts[i] = fmt.Sprintf(`SELECT n_name FROM customer, orders, lineitem, supplier, nation, region
			 WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey
			   AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
			   AND c_mktsegment = 'SEG%d'`, i)
		} else {
			stmts[i] = fmt.Sprintf(`SELECT c_name FROM customer, orders, lineitem
			 WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
			   AND o_orderpriority = 'P%d'`, i)
		}
	}
	return stmts
}

// BenchmarkServiceEstimateBatch submits 16-statement batches of the two
// structures above. In-batch dedup plus the estimate cache mean a
// steady-state batch parses 16 statements but enumerates none; dedup%
// reports the in-batch share answered by a sibling statement.
func BenchmarkServiceEstimateBatch(b *testing.B) {
	srv := service.New(service.Config{Workers: 2, CacheCapacity: 64})
	ctx := context.Background()
	stmts := batchStatements(16)
	b.ReportAllocs()
	b.ResetTimer()
	var deduped, total int64
	for i := 0; i < b.N; i++ {
		resp, err := srv.EstimateBatch(ctx, service.EstimateBatchRequest{Catalog: "tpch", Statements: stmts})
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range resp.Items {
			if it.Error != "" {
				b.Fatal(it.Error)
			}
		}
		deduped += int64(resp.Deduped)
		total += int64(len(stmts))
	}
	if total > 0 {
		b.ReportMetric(100*float64(deduped)/float64(total), "dedup%")
	}
}
