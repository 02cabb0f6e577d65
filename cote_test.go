package cote_test

import (
	"testing"

	"cote"
	"cote/internal/core"
)

// TestPublicAPIEndToEnd walks the full public surface: build a catalog,
// parse SQL, optimize, estimate, calibrate, predict, meta-optimize.
func TestPublicAPIEndToEnd(t *testing.T) {
	cat := cote.TPCHCatalog(1, 1)
	q, err := cote.ParseSQL(`
		SELECT n_name, SUM(l_extendedprice)
		FROM customer, orders, lineitem, supplier, nation, region
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
		  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
		  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		  AND r_name = 'ASIA'
		GROUP BY n_name
		ORDER BY n_name`, cat)
	if err != nil {
		t.Fatal(err)
	}

	res, err := cote.Optimize(q, cote.OptimizeOptions{Level: cote.LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}

	est, err := cote.EstimatePlans(q, cote.EstimateOptions{Level: cote.LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	actual := cote.ActualPlanCounts(res)
	if est.Counts.Total() == 0 || actual.Total() == 0 {
		t.Fatal("zero counts")
	}
	if est.Elapsed >= res.Elapsed {
		t.Fatalf("estimation (%v) not faster than optimization (%v)", est.Elapsed, res.Elapsed)
	}

	// Calibrate a model on the star workload and predict this query. Each
	// training point is the fastest of five compiles, untimed for its counts
	// and wall time and timed for its per-method shares, as training runs.
	var training []cote.CompileObservation
	for _, wq := range cote.StarWorkload(1).Queries {
		o, err := core.TrainingObservation(func(o cote.OptimizeOptions) (*cote.OptimizeResult, error) {
			var best *cote.OptimizeResult
			for i := 0; i < 5; i++ {
				r, err := cote.Optimize(wq.Block, o)
				if err != nil {
					return nil, err
				}
				r.Release()
				if best == nil || r.Elapsed < best.Elapsed {
					best = r
				}
			}
			return best, nil
		}, cote.OptimizeOptions{Level: cote.LevelHigh})
		if err != nil {
			t.Fatal(err)
		}
		training = append(training, o)
	}
	model, err := cote.Calibrate(training)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := cote.EstimatePlans(q, cote.EstimateOptions{Level: cote.LevelHigh, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if est2.PredictedTime <= 0 {
		t.Fatal("no time prediction")
	}

	// Meta-optimizer runs end to end.
	mop := &cote.MetaOptimizer{Model: model}
	_, dec, err := mop.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if dec.TotalElapsed <= 0 {
		t.Fatal("no MOP decision record")
	}
}

func TestPublicParallelAndBaseline(t *testing.T) {
	q := cote.MustParseSQL(
		`SELECT s_amount FROM sales, store, product
		 WHERE s_store_id = st_id AND s_prod_id = p_id`,
		cote.Warehouse1Catalog(4))
	est, err := cote.EstimatePlans(q, cote.EstimateOptions{Config: cote.Parallel4})
	if err != nil {
		t.Fatal(err)
	}
	if est.Counts.ByMethod[cote.HSJN] == 0 {
		t.Fatal("no hash-join plans estimated")
	}
	if est.Pairs == 0 {
		t.Fatal("no joins counted")
	}
	if n, err := cote.ClosedFormJoins("linear", 5); err != nil || n != 20 {
		t.Fatalf("closed form = %d, %v", n, err)
	}
	multi, err := cote.EstimateLevels(q, cote.LevelHigh,
		[]cote.Level{cote.LevelMediumLeftDeep, cote.LevelHigh}, cote.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Counts[cote.LevelHigh].Total() < multi.Counts[cote.LevelMediumLeftDeep].Total() {
		t.Fatal("bushy level estimated fewer plans than left-deep")
	}
}

func TestPublicExtensions(t *testing.T) {
	cat := cote.TPCHCatalog(1, 1)
	// FETCH FIRST through the public surface.
	q := cote.MustParseSQL(`SELECT o_orderkey FROM orders, lineitem
		WHERE o_orderkey = l_orderkey FETCH FIRST 10 ROWS ONLY`, cat)
	res, err := cote.Optimize(q, cote.OptimizeOptions{Level: cote.LevelHigh})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Pipelined {
		t.Fatal("FETCH FIRST plan not pipelined")
	}
}

func TestPublicWorkloadConstructors(t *testing.T) {
	for _, w := range []*cote.Workload{
		cote.LinearWorkload(1), cote.StarWorkload(4),
		cote.RandomWorkload(1, 4, 8, 1),
		cote.Real1Workload(1), cote.Real2Workload(1), cote.TPCHWorkload(4),
	} {
		if len(w.Queries) == 0 || w.Catalog == nil {
			t.Fatalf("workload %s malformed", w.Name)
		}
	}
}
