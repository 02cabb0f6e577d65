// Command cotebench regenerates every table and figure of the paper's
// evaluation on this machine. Each figure id selects one experiment; "all"
// runs the full suite in paper order. Output is plain text, one table per
// figure, with the paper's reported numbers quoted for comparison where the
// paper gives them.
//
// Usage:
//
//	cotebench [-fig all|2|4a|4b|4c|5a|5d|5g|6a|6b|6c|6d|6e|6f|ct|joinbaseline|pilot|mem|memfig|piggyback|ablations|pipeline|cache|calib] [-seed N] [-timeout 0]
//
// The calib figure replays a deterministic workload through the online
// calibration loop, showing predicted/actual convergence from a 4x
// mis-scaled model.
//
// -timeout bounds the whole suite: the deadline is checked between figures
// and inside the repeated-compile loops, so an overrunning run stops with a
// clear error instead of hanging a CI job.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cote/internal/calib"
	"cote/internal/core"
	"cote/internal/experiments"
	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/stats"
	"cote/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure/table id to regenerate, or 'all'")
	seed := flag.Int64("seed", 42, "seed of the random workload generator")
	timeout := flag.Duration("timeout", 0, "deadline for the whole suite (0 = none)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	s := newSuite(*seed, ctx)
	ids := strings.Split(*fig, ",")
	if *fig == "all" {
		ids = []string{"2", "4a", "4b", "4c", "5a", "5d", "5g", "6a", "6b", "6c", "6d", "6e", "6f",
			"ct", "joinbaseline", "pilot", "mem", "memfig", "piggyback", "ablations", "pipeline", "cache", "calib"}
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "cotebench: suite timeout before figure %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := s.run(strings.TrimSpace(id)); err != nil {
			fmt.Fprintf(os.Stderr, "cotebench: figure %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// suite caches workloads and calibrated models across figures.
type suite struct {
	seed      int64
	ctx       context.Context // bounds the whole suite (-timeout)
	workloads map[string]*workload.Workload
	models    map[string]*core.TimeModel // "s" and "p"
}

func newSuite(seed int64, ctx context.Context) *suite {
	return &suite{
		seed:      seed,
		ctx:       ctx,
		workloads: map[string]*workload.Workload{},
		models:    map[string]*core.TimeModel{},
	}
}

// wl returns (and caches) a workload by paper name.
func (s *suite) wl(name string) *workload.Workload {
	if w, ok := s.workloads[name]; ok {
		return w
	}
	var w *workload.Workload
	switch name {
	case "linear_s":
		w = workload.Linear(1)
	case "linear_p":
		w = workload.Linear(4)
	case "star_s":
		w = workload.Star(1)
	case "star_p":
		w = workload.Star(4)
	case "random_s":
		w = workload.Random(s.seed, 12, 10, 1)
	case "random_p":
		w = workload.Random(s.seed, 12, 10, 4)
	case "real1_s":
		w = workload.Real1(1)
	case "real1_p":
		w = workload.Real1(4)
	case "real2_s":
		w = workload.Real2(1)
	case "real2_p":
		w = workload.Real2(4)
	case "tpch_s":
		w = workload.TPCH(1)
	case "tpch_p":
		w = workload.TPCH(4)
	default:
		panic("unknown workload " + name)
	}
	s.workloads[name] = w
	return w
}

// model returns (and caches) the calibrated time model for the serial ("s")
// or parallel ("p") version. Training uses the synthetic workloads plus the
// random workload, holding the evaluation's real workloads out.
func (s *suite) model(version string) (*core.TimeModel, error) {
	if m, ok := s.models[version]; ok {
		return m, nil
	}
	var training []*workload.Workload
	if version == "s" {
		training = []*workload.Workload{s.wl("linear_s"), s.wl("star_s"), s.wl("random_s")}
	} else {
		training = []*workload.Workload{s.wl("linear_p"), s.wl("star_p"), s.wl("random_p")}
	}
	m, err := experiments.TrainModel(training)
	if err != nil {
		return nil, err
	}
	s.models[version] = m
	fmt.Printf("## calibrated %s model: %v\n\n", version, m)
	return m, nil
}

func (s *suite) run(id string) error {
	switch id {
	case "2":
		return s.fig2()
	case "4a":
		return s.fig4(s.wl("linear_s"))
	case "4b":
		return s.fig4(s.wl("real2_s"))
	case "4c":
		return s.fig4(s.wl("real1_p"))
	case "5a":
		return s.fig5(s.wl("star_s"))
	case "5d":
		return s.fig5(s.wl("random_p"))
	case "5g":
		return s.fig5(s.wl("real1_p"))
	case "6a":
		return s.fig6(s.wl("star_s"))
	case "6b":
		return s.fig6(s.wl("real1_s"))
	case "6c":
		return s.fig6(s.wl("real2_s"))
	case "6d":
		return s.fig6(s.wl("tpch_p"))
	case "6e":
		return s.fig6(s.wl("random_p"))
	case "6f":
		return s.fig6(s.wl("real1_p"))
	case "ct":
		return s.ctRatios()
	case "joinbaseline":
		return s.joinBaseline()
	case "pilot":
		return s.pilot()
	case "mem":
		return s.memory()
	case "memfig":
		return s.memFig()
	case "piggyback":
		return s.piggyback()
	case "ablations":
		return s.ablations()
	case "pipeline":
		return s.pipeline()
	case "cache":
		return s.cache()
	case "calib":
		return s.calibration()
	}
	return fmt.Errorf("unknown figure id %q", id)
}

// calibration demonstrates the online calibration loop: starting from a
// deliberately 4x mis-scaled model, a deterministic workload replay (plan
// counts from the estimator, durations synthesized from the true model, so
// no wall-clock noise) drives the drift detector past its threshold, the
// recalibrator refits over the observation window, and the registry
// version advances while held-out prediction error collapses.
func (s *suite) calibration() error {
	trueModel, err := s.model("s")
	if err != nil {
		return err
	}
	bad := *trueModel
	for i := range bad.C {
		bad.C[i] *= 4
	}
	bad.C0 *= 4

	reg := calib.NewRegistry()
	reg.Install(&bad, "seed", 0, 0)
	cal := calib.NewCalibrator(reg, nil)

	type sample struct {
		counts core.PlanCounts
		level  opt.Level
		fp     fingerprint.FP
	}
	collect := func(names []string) ([]sample, error) {
		var out []sample
		for _, name := range names {
			for _, q := range s.wl(name).Queries {
				for _, level := range []opt.Level{opt.LevelHighInner2, opt.LevelMediumLeftDeep} {
					est, err := core.EstimatePlansCtx(s.ctx, q.Block, core.Options{Level: level})
					if err != nil {
						return nil, err
					}
					out = append(out, sample{est.Counts, level, fingerprint.Of(q.Block)})
				}
			}
		}
		return out, nil
	}
	replay, err := collect([]string{"linear_s", "random_s"})
	if err != nil {
		return err
	}
	heldOut, err := collect([]string{"real1_s"})
	if err != nil {
		return err
	}
	heldOutErr := func() float64 {
		m := reg.CurrentModel()
		var sum float64
		for _, h := range heldOut {
			sum += stats.RelErr(m.Predict(h.counts).Seconds(), trueModel.Predict(h.counts).Seconds())
		}
		return sum / float64(len(heldOut))
	}

	fmt.Println("=== Extension: online calibration convergence ===")
	fmt.Printf("seed model is the true model with every constant scaled 4x; %d replay samples/round, %d held-out queries (real1_s)\n",
		len(replay), len(heldOut))
	fmt.Printf("%-6s %6s %8s %9s %8s %8s %14s\n", "round", "obs", "drift", "degraded", "refits", "version", "held-out err")
	fmt.Printf("%-6s %6d %8s %9v %8d %8d %13.1f%%\n", "start", 0, "-", false, 0, reg.Version(), heldOutErr()*100)
	for round := 1; round <= 3; round++ {
		for _, sm := range replay {
			if err := s.ctx.Err(); err != nil {
				return err
			}
			var predicted time.Duration
			if m := reg.CurrentModel(); m != nil {
				predicted = m.Predict(sm.counts)
			}
			cal.ObserveCompile(core.CompileObservation{
				Counts:      sm.counts,
				Level:       sm.level,
				Fingerprint: sm.fp,
				Predicted:   predicted,
				Actual:      trueModel.Predict(sm.counts),
			})
		}
		st := cal.Stats()
		fmt.Printf("%-6d %6d %7.2f%% %9v %8d %8d %13.1f%%\n",
			round, st.Observations, st.Drift*100, st.Degraded, st.Recalibrations, reg.Version(), heldOutErr()*100)
	}
	if v, ok := reg.Get(1); ok {
		fmt.Printf("v1 (%s) still retrievable for rollback: %v\n", v.Source, v.Model)
	}
	fmt.Println()
	return nil
}

func (s *suite) fig2() error {
	fmt.Println("=== Figure 2: compilation time breakdown (customer workload) ===")
	fmt.Println("paper (DB2): MGJN 37%  NLJN 34%  HSJN 5%  plan saving 16%  other 8%")
	for _, name := range []string{"real2_s", "real1_s"} {
		row, err := experiments.Fig2Breakdown(s.wl(name))
		if err != nil {
			return err
		}
		fmt.Printf("%-10s MGJN %4.1f%%  NLJN %4.1f%%  HSJN %4.1f%%  plan saving %4.1f%%  other %4.1f%%\n",
			row.Workload, row.MGJN, row.NLJN, row.HSJN, row.PlanSaving, row.Other)
	}
	fmt.Println()
	return nil
}

func (s *suite) fig4(w *workload.Workload) error {
	fmt.Printf("=== Figure 4: estimation overhead vs actual compilation (%s) ===\n", w.Name)
	fmt.Println("paper: overhead between 0.3% and 3% of compilation time")
	rows, err := experiments.Fig4Overhead(w)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %14s %14s %8s\n", "query", "compile", "estimate", "pctg")
	var mean float64
	for _, r := range rows {
		fmt.Printf("%-16s %14v %14v %7.2f%%\n", r.Query, r.Actual, r.Estimate, r.Pct)
		mean += r.Pct
	}
	fmt.Printf("%-16s %14s %14s %7.2f%%\n", "MEAN", "", "", mean/float64(len(rows)))
	compile, estimate, pct := experiments.OverheadTotal(rows)
	fmt.Printf("%-16s %14v %14v %7.2f%%\n\n", "TOTAL", compile, estimate, pct)
	return nil
}

func (s *suite) fig5(w *workload.Workload) error {
	fmt.Printf("=== Figure 5: estimated vs actual generated plans (%s) ===\n", w.Name)
	rows, err := experiments.Fig5Plans(w)
	if err != nil {
		return err
	}
	for m := props.JoinMethod(0); m < props.NumJoinMethods; m++ {
		fmt.Printf("--- %v ---\n", m)
		fmt.Printf("%-16s %10s %10s %8s\n", "query", "actual", "estimated", "err")
		for _, r := range rows {
			if r.Method != m {
				continue
			}
			errPct := 0.0
			if r.Actual > 0 {
				errPct = 100 * float64(r.Estimated-r.Actual) / float64(r.Actual)
			}
			fmt.Printf("%-16s %10d %10d %+7.1f%%\n", r.Query, r.Actual, r.Estimated, errPct)
		}
	}
	errs := experiments.PlanErrors(rows)
	fmt.Println("--- mean relative error per method ---")
	for m := props.JoinMethod(0); m < props.NumJoinMethods; m++ {
		e := errs[m]
		fmt.Printf("%v: mean %.1f%%  max %.1f%%  (n=%d)\n", m, e.Mean*100, e.Max*100, e.N)
	}
	// Render the NLJN panel as a bar chart (the widest-spread series in the
	// paper's Figure 5).
	var labels []string
	var act, est []float64
	for _, r := range rows {
		if r.Method != props.NLJN {
			continue
		}
		labels = append(labels, r.Query)
		act = append(act, float64(r.Actual))
		est = append(est, float64(r.Estimated))
	}
	chart("NLJN generated plans", labels, act, est, "plans")
	fmt.Println()
	return nil
}

func (s *suite) fig6(w *workload.Workload) error {
	version := w.Name[len(w.Name)-1:]
	model, err := s.model(version)
	if err != nil {
		return err
	}
	fmt.Printf("=== Figure 6: compilation time estimation (%s) ===\n", w.Name)
	fmt.Println("paper: within 30% on most workloads; up to 66% on real1_p")
	rows, err := experiments.Fig6Times(w, model)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %14s %14s %8s\n", "query", "actual", "predicted", "err")
	for _, r := range rows {
		fmt.Printf("%-16s %14v %14v %+7.1f%%\n", r.Query, r.Actual, r.Predicted, signedPct(r.Predicted.Seconds(), r.Actual.Seconds()))
	}
	sum := experiments.TimeErrors(rows)
	fmt.Printf("mean error %.1f%%  max error %.1f%%\n", sum.Mean*100, sum.Max*100)
	var labels []string
	var act, est []float64
	for _, r := range rows {
		labels = append(labels, r.Query)
		act = append(act, r.Actual.Seconds())
		est = append(est, r.Predicted.Seconds())
	}
	chart("compilation time", labels, act, est, "ms")
	fmt.Println()
	return nil
}

func signedPct(est, act float64) float64 {
	if act == 0 {
		return 0
	}
	return 100 * (est - act) / act
}

func (s *suite) ctRatios() error {
	fmt.Println("=== Section 4: calibrated per-plan cost ratios Cm:Cn:Ch ===")
	fmt.Println("paper (DB2): 5:2:4 serial, 6:1:2 parallel")
	for _, v := range []string{"s", "p"} {
		m, err := s.model(v)
		if err != nil {
			return err
		}
		r := m.Ratio()
		fmt.Printf("%s: %.1f : %.1f : %.1f\n", v, r[props.MGJN], r[props.NLJN], r[props.HSJN])
	}
	fmt.Println()
	return nil
}

func (s *suite) joinBaseline() error {
	model, err := s.model("s")
	if err != nil {
		return err
	}
	fmt.Println("=== Section 5.3: plan-count model vs join-count baseline (star_s) ===")
	fmt.Println("paper: join-count errors ~20x larger within star batches")
	rows, err := experiments.JoinBaseline(s.wl("star_s"), model)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %12s %12s %12s %10s %10s\n", "query", "actual", "plan-model", "join-model", "plan-err", "join-err")
	var pe, je float64
	for _, r := range rows {
		fmt.Printf("%-16s %12v %12v %12v %9.1f%% %9.1f%%\n",
			r.Query, r.Actual, r.PlanModel, r.JoinModel, r.PlanErr*100, r.JoinErr*100)
		pe += r.PlanErr
		je += r.JoinErr
	}
	n := float64(len(rows))
	fmt.Printf("mean: plan model %.1f%%, join baseline %.1f%% (%.1fx worse)\n\n",
		pe/n*100, je/n*100, je/pe)
	return nil
}

func (s *suite) pilot() error {
	fmt.Println("=== Section 6.1: pilot-pass pruning effectiveness ===")
	fmt.Println("paper: no more than 10% of plans pruned by the initial plan on real workloads")
	for _, name := range []string{"real1_s", "real2_s"} {
		rows, err := experiments.PilotPass(s.wl(name))
		if err != nil {
			return err
		}
		var frac float64
		for _, r := range rows {
			frac += r.PrunedFrac
		}
		fmt.Printf("%-10s mean pruned fraction %.1f%%\n", name, frac/float64(len(rows))*100)
	}
	fmt.Println()
	return nil
}

func (s *suite) memory() error {
	fmt.Println("=== Section 6.2: optimizer memory estimation (star_s) ===")
	rows, err := experiments.MemoryEstimates(s.wl("star_s"))
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %14s %14s\n", "query", "predicted", "actual MEMO")
	for _, r := range rows {
		fmt.Printf("%-16s %13dB %13dB\n", r.Query, r.PredictedBytes, r.ActualBytes)
	}
	fmt.Println("(the prediction is a lower bound on optimizer memory, per the paper)")
	fmt.Println()
	return nil
}

// memFig evaluates the memory model: a calibration pass over the synthetic
// workloads fits the coefficients, then every evaluation query is compiled
// under an execution context at every DP level and the
// calibrated prediction is compared against the measured durable peak.
func (s *suite) memFig() error {
	fmt.Println("=== Extension: predicted vs measured peak optimizer memory ===")
	levels := []opt.Level{opt.LevelMediumLeftDeep, opt.LevelMediumZigZag, opt.LevelHighInner2}
	model, err := experiments.MemCalibrationPass(
		[]*workload.Workload{s.wl("linear_s"), s.wl("star_s"), s.wl("random_s")}, levels)
	if err != nil {
		return err
	}
	fmt.Printf("calibrated memory model: %+.1f B/entry, %+.2f B/plan, %+.2f B/prop-byte, base %.0f B\n",
		model.PerEntry, model.PerPlan, model.PerPropByte, model.Base)
	fmt.Printf("%-10s %-16s %-18s %12s %12s %7s\n", "workload", "query", "level", "predicted", "measured", "ratio")
	for _, name := range []string{"real1_s", "real2_s", "tpch_s"} {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		rows, err := experiments.MemFig(s.wl(name), levels, model)
		if err != nil {
			return err
		}
		var worst float64
		for _, r := range rows {
			fmt.Printf("%-10s %-16s %-18v %11dB %11dB %6.2fx\n",
				r.Workload, r.Query, r.Level, r.Predicted, r.Measured, r.Ratio())
			if ratio := r.Ratio(); ratio > worst {
				worst = ratio
			}
		}
		fmt.Printf("%-10s worst over-prediction %.2fx\n", name, worst)
	}
	fmt.Println("(measured = durable MEMO high-water mark of the compile)")
	fmt.Println()
	return nil
}

func (s *suite) piggyback() error {
	fmt.Println("=== Section 6.2: multi-level estimation in a single pass (real1_s) ===")
	levels := []opt.Level{opt.LevelMediumLeftDeep, opt.LevelHighInner2, opt.LevelHigh}
	rows, err := experiments.Piggyback(s.wl("real1_s"), levels)
	if err != nil {
		return err
	}
	byQuery := map[string][]experiments.PiggybackRow{}
	var names []string
	for _, r := range rows {
		if len(byQuery[r.Query]) == 0 {
			names = append(names, r.Query)
		}
		byQuery[r.Query] = append(byQuery[r.Query], r)
	}
	sort.Strings(names)
	fmt.Printf("%-16s", "query")
	for _, l := range levels {
		fmt.Printf(" %18s", l)
	}
	fmt.Println()
	for _, name := range names {
		fmt.Printf("%-16s", name)
		for _, r := range byQuery[name] {
			fmt.Printf(" %9d plans   ", r.Plans)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func (s *suite) pipeline() error {
	fmt.Println("=== Extension: pipelineability property (Table 1, FETCH FIRST) ===")
	rows, err := experiments.PipelineExtension()
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %12s %12s %14s %14s\n", "query", "plain act", "plain est", "first-N act", "first-N est")
	for _, r := range rows {
		fmt.Printf("%-16s %12d %12d %14d %14d\n",
			r.Query, r.PlainActual, r.PlainEst, r.FirstNActual, r.FirstNEst)
	}
	fmt.Println("(FETCH FIRST keeps pipelined and blocking variants apart, growing both actual and estimated counts)")
	fmt.Println()
	return nil
}

func (s *suite) cache() error {
	fmt.Println("=== Extension: statement-cache baseline (Section 1.2) ===")
	for _, name := range []string{"real1_s", "tpch_s"} {
		row, err := experiments.StatementCacheExtension(s.wl(name))
		if err != nil {
			return err
		}
		fmt.Printf("%-10s ad-hoc pass: %d/%d hits; exact replay: %d/%d hits\n",
			row.Workload, row.FirstPassHit, row.Queries, row.ReplayHit, row.Queries)
	}
	fmt.Println("(the cache only helps on exact repeats — the paper's argument for a real estimator)")
	fmt.Println()
	return nil
}

func (s *suite) ablations() error {
	fmt.Println("=== DESIGN.md section 5: estimator ablations (real1_p) ===")
	rows, err := experiments.Ablations(s.wl("real1_p"))
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %10s %10s %10s %12s %10s\n", "variant", "est", "actual", "mean err", "elapsed", "prop mem")
	for _, r := range rows {
		fmt.Printf("%-28s %10d %10d %9.1f%% %12v %9dB\n",
			r.Variant, r.TotalEst, r.TotalAct, r.MeanErr*100, r.Elapsed, r.PropBytes)
	}
	fmt.Println()
	return nil
}
