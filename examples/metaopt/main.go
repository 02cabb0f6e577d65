// Meta-optimizer (Figure 1 of the paper): compile a query at the cheap
// greedy level, obtain the execution-cost estimate E of the plan it found,
// ask the compilation-time estimator for the high level's cost C, and
// recompile at the high level only when C < E — "if C is larger than E,
// there is no point in further optimization since the query can complete
// execution by the time high-level optimization finishes".
//
// The example runs two contrasting queries: a heavy analytical join where
// high-level optimization clearly pays, and a trivially selective lookup
// whose execution is so fast that recompiling would cost more than running
// the greedy plan.
package main

import (
	"fmt"

	"cote"
)

func main() {
	cat := cote.TPCHCatalog(1, 1)

	// Calibrate the compile-time model.
	var training []cote.CompileObservation
	for _, q := range cote.StarWorkload(1).Queries {
		o, err := cote.TrainingObservation(q.Block, cote.OptimizeOptions{Level: cote.LevelHighInner2})
		if err != nil {
			panic(err)
		}
		training = append(training, o)
	}
	model, err := cote.Calibrate(training)
	if err != nil {
		panic(err)
	}
	models := cote.NewModelRegistry()
	models.Install(model, "calibrate", len(training), 0)

	heavy := cote.MustParseSQL(`
		SELECT n_name, o_orderdate, SUM(l_extendedprice)
		FROM part, supplier, lineitem, partsupp, orders, nation
		WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
		  AND ps_partkey = l_partkey AND p_partkey = l_partkey
		  AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
		GROUP BY n_name, o_orderdate`, cat)

	// The paper's "complex yet very selective" case: eight joins over tiny
	// dimension tables. Compiling the 8-way search space costs more than
	// just running the greedy plan, so the meta-optimizer should refuse to
	// recompile.
	light := cote.MustParseSQL(`
		SELECT n1.n_name
		FROM nation n1, region r1, nation n2, region r2,
		     nation n3, region r3, nation n4, region r4
		WHERE n1.n_regionkey = r1.r_regionkey AND n2.n_regionkey = r2.r_regionkey
		  AND n3.n_regionkey = r3.r_regionkey AND n4.n_regionkey = r4.r_regionkey
		  AND n1.n_nationkey = n2.n_nationkey AND n2.n_nationkey = n3.n_nationkey
		  AND n3.n_nationkey = n4.n_nationkey
		  AND n1.n_name = 'FRANCE'`, cat)

	mop := &cote.MetaOptimizer{High: cote.LevelHighInner2, Models: models}
	for _, tc := range []struct {
		name string
		q    *cote.Query
	}{{"heavy 6-way analytical join", heavy}, {"complex but selective 8-way lookup", light}} {
		res, dec, err := mop.Run(tc.q)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s:\n", tc.name)
		fmt.Printf("  E (greedy plan exec estimate) = %v\n", dec.LowPlanExecCost)
		fmt.Printf("  C (high-level compile estimate) = %v\n", dec.HighCompileEstimate)
		if dec.Recompiled {
			fmt.Printf("  -> C < E: recompiled at %v; final plan cost %v (was %v)\n",
				dec.FinalLevel, dec.FinalPlanCost, dec.LowPlanExecCost)
		} else {
			fmt.Printf("  -> C >= E: kept the greedy plan (%v)\n", dec.FinalPlanCost)
		}
		fmt.Printf("  meta-optimization total: %v, plan: %s\n\n", dec.TotalElapsed, res.Plan)
	}
}
