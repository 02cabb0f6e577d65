// Command mop demonstrates the paper's Figure 1 meta-optimizer over a
// workload: each query is first compiled at the cheap greedy level; the
// compilation-time estimator then prices high-level optimization, and the
// query is recompiled at the high level only when the predicted compilation
// time is below the (estimated) execution time of the greedy plan.
//
// Usage:
//
//	mop [-workload real1|real2|tpch|star|linear|random] [-nodes 1|4] [-static]
//	    [-timeout 0] [-budget-factor 0] [-model-file f.json] [-calibrate workload]
//
// -timeout bounds each query's meta-optimization; -budget-factor aborts a
// recompile whose generated plans overrun the prediction by that factor and
// retries at the next-lower level. The time model comes from -model-file
// when it holds one, else from calibrating on the -calibrate workload, else
// from the release model at its nominal Tinst of 1e-9, so every start prices
// E (the greedy plan's execution time) the same. Every real compilation
// feeds the online calibrator, whose refit fits the model's scale to this
// host, and -model-file (when set) receives the post-run registry, so
// repeated runs keep improving the model.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cote"
	"cote/internal/modelio"
)

func main() {
	wlName := flag.String("workload", "tpch", "workload: "+modelio.WorkloadNames)
	nodes := flag.Int("nodes", 1, "logical nodes (1 or 4)")
	static := flag.Bool("static", false, "treat queries as static (repeatedly executed): 10x compile budget")
	timeout := flag.Duration("timeout", 0, "per-query meta-optimization deadline (0 = none)")
	budgetFactor := flag.Float64("budget-factor", 0, "abort+downgrade a recompile overrunning the predicted plan count by this factor (0 = off)")
	memBudget := flag.Int64("mem-budget", 0, "per-rung peak optimizer memory budget in bytes: skip rungs predicted over it, abort rungs measured over it (0 = off)")
	var mf modelio.Flags
	mf.Register(flag.CommandLine)
	flag.Parse()

	if err := modelio.CheckNodes(*nodes); err != nil {
		fatal(err)
	}
	w, err := modelio.NamedWorkload(*wlName, *nodes)
	if err != nil {
		fatal(err)
	}
	cfg := modelio.ConfigFor(*nodes)

	model, reg, err := mf.Resolve(*nodes)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model (v%d, %s): %v\n\n", reg.Version(), reg.Current().Source, model)

	// The registry supplies the model per run and the calibrator observes
	// every real compilation, so a drifting model heals mid-workload.
	cal := cote.NewCalibrator(reg, nil)
	mop := &cote.MetaOptimizer{
		High:         cote.LevelHighInner2,
		Config:       cfg,
		Models:       reg,
		Observer:     cal,
		Static:       *static,
		BudgetFactor: *budgetFactor,
		MemBudget:    *memBudget,
	}

	fmt.Printf("%-16s %14s %14s %10s %18s %8s %12s\n", "query", "E (greedy exec)", "C (est compile)", "recompile", "final plan cost", "aborts", "peak bytes")
	recompiled, aborted, memLimited := 0, 0, 0
	for _, q := range w.Queries {
		ctx := context.Background()
		cancel := func() {}
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		_, dec, err := mop.RunCtx(ctx, q.Block)
		cancel()
		if err != nil {
			fatal(err)
		}
		mark := "no"
		if dec.Recompiled {
			mark = "YES"
			recompiled++
		}
		aborted += len(dec.AbortedLevels)
		memLimited += len(dec.MemSkippedLevels) + len(dec.MemAbortedLevels)
		fmt.Printf("%-16s %14v %14v %10s %18v %8d %12d\n",
			q.Name, dec.LowPlanExecCost, dec.HighCompileEstimate, mark, dec.FinalPlanCost, len(dec.AbortedLevels), dec.FinalPeakBytes)
	}
	fmt.Printf("\nrecompiled %d of %d queries at the high level", recompiled, len(w.Queries))
	if *budgetFactor > 0 {
		fmt.Printf("; %d level(s) budget-aborted", aborted)
	}
	if *memBudget > 0 {
		fmt.Printf("; %d level(s) memory-limited", memLimited)
	}
	fmt.Println()
	if st := cal.Stats(); st.Recalibrations > 0 {
		fmt.Printf("online calibration refitted the model %d time(s); now v%d (drift %.2f)\n",
			st.Recalibrations, reg.Version(), st.Drift)
	}
	if err := mf.Save(reg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mop: %v\n", err)
	os.Exit(1)
}
