// Package experiments reproduces the paper's evaluation (Section 5): one
// runner per figure or table, each returning the rows the paper plots so
// that cmd/cotebench and the top-level benchmarks can print them. The
// optimization level matches the paper's setup — dynamic programming with a
// composite-inner-size limit — and each workload runs on the serial or the
// 4-node parallel version as in the original.
package experiments

import (
	"context"
	"fmt"
	"time"

	"cote/internal/core"
	"cote/internal/cost"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/query"
	"cote/internal/stats"
	"cote/internal/workload"
)

// Level is the optimization level of all experiments, matching "a level of
// optimization that uses dynamic programming with certain limits on the
// composite inner size".
const Level = opt.LevelHighInner2

// ConfigFor returns the cost configuration matching a workload's _s/_p
// suffix.
func ConfigFor(w *workload.Workload) *cost.Config {
	if len(w.Name) > 0 && w.Name[len(w.Name)-1] == 'p' {
		return cost.Parallel4
	}
	return cost.Serial
}

// A timed call is repeated at least minTimingRuns times and until
// timingFloor of measured work has accumulated, up to maxTimingRuns; the
// fastest run is kept. A 50µs compile is both the most exposed to a stray GC
// cycle or descheduling and the cheapest to repeat, so the short queries get
// the extra runs and the long ones keep three.
const (
	minTimingRuns = 3
	maxTimingRuns = 15
	timingFloor   = 5 * time.Millisecond
)

// fastestOf repeats run under the rule above and returns the result of its
// fastest repetition.
func fastestOf[T any](run func() (T, time.Duration, error)) (T, error) {
	var best T
	var bestTime, total time.Duration
	for i := 0; i < maxTimingRuns && (i < minTimingRuns || total < timingFloor); i++ {
		r, elapsed, err := run()
		if err != nil {
			return best, err
		}
		if i == 0 || elapsed < bestTime {
			best, bestTime = r, elapsed
		}
		total += elapsed
	}
	return best, nil
}

// timedOptimize compiles a query repeatedly with opts and returns the
// fastest result, released: its counters, timers and resources are what the
// figures read, and every repetition hands its workspaces to the next, so
// the compile timed is the one the service runs on a warm pool. Only Figure
// 2 and training set opts.Timed; every other figure times the untimed
// compile the service runs.
func timedOptimize(q workload.Query, opts opt.Options) (*opt.Result, error) {
	return fastestOf(func() (*opt.Result, time.Duration, error) {
		res, err := opt.Optimize(q.Block, opts)
		if err != nil {
			return nil, 0, err
		}
		res.Release()
		return res, res.Elapsed, nil
	})
}

// timedEstimate runs the estimator repeatedly and returns the fastest run.
func timedEstimate(q workload.Query, cfg *cost.Config, model *core.TimeModel) (*core.Estimate, error) {
	return fastestOf(func() (*core.Estimate, time.Duration, error) {
		est, err := core.EstimatePlans(q.Block, core.Options{Level: Level, Config: cfg, Model: model})
		if err != nil {
			return nil, 0, err
		}
		return est, est.Elapsed, nil
	})
}

// --- Figure 2 ---

// Fig2Row is the compilation-time breakdown of one workload.
type Fig2Row struct {
	Workload                            string
	MGJN, NLJN, HSJN, PlanSaving, Other float64 // percentages
}

// Fig2Breakdown measures where compilation time goes on a workload —
// the paper's customer-workload pie chart (MGJN 37%, NLJN 34%, HSJN 5%,
// plan saving 16%, other 8%).
func Fig2Breakdown(w *workload.Workload) (Fig2Row, error) {
	cfg := ConfigFor(w)
	var agg opt.Breakdown
	var total time.Duration
	for _, q := range w.Queries {
		res, err := timedOptimize(q, opt.Options{Level: Level, Config: cfg, Timed: true})
		if err != nil {
			return Fig2Row{}, fmt.Errorf("%s: %w", q.Name, err)
		}
		b := res.Breakdown()
		weight := res.Elapsed.Seconds()
		agg.MGJN += b.MGJN * weight
		agg.NLJN += b.NLJN * weight
		agg.HSJN += b.HSJN * weight
		agg.PlanSaving += b.PlanSaving * weight
		agg.Other += b.Other * weight
		total += res.Elapsed
	}
	t := total.Seconds()
	if t == 0 {
		return Fig2Row{Workload: w.Name, Other: 100}, nil
	}
	return Fig2Row{
		Workload: w.Name,
		MGJN:     100 * agg.MGJN / t, NLJN: 100 * agg.NLJN / t,
		HSJN: 100 * agg.HSJN / t, PlanSaving: 100 * agg.PlanSaving / t,
		Other: 100 * agg.Other / t,
	}, nil
}

// --- Figure 4 ---

// OverheadRow compares one query's real compilation time with the time the
// estimator took.
type OverheadRow struct {
	Query    string
	Actual   time.Duration
	Estimate time.Duration
	Pct      float64
}

// Fig4Overhead measures estimation overhead against real compilation for a
// workload (Figures 4a-4c; the paper reports 0.3%-3%).
func Fig4Overhead(w *workload.Workload) ([]OverheadRow, error) {
	cfg := ConfigFor(w)
	var out []OverheadRow
	for _, q := range w.Queries {
		res, err := timedOptimize(q, opt.Options{Level: Level, Config: cfg})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		est, err := timedEstimate(q, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		out = append(out, OverheadRow{
			Query:    q.Name,
			Actual:   res.Elapsed,
			Estimate: est.Elapsed,
			Pct:      100 * est.Elapsed.Seconds() / res.Elapsed.Seconds(),
		})
	}
	return out, nil
}

// OverheadTotal returns a workload's total estimation time as a percentage
// of its total compilation time. Unlike the mean of the per-query
// percentages it weighs each query by what it costs, so one noisy
// 70µs query cannot carry it.
func OverheadTotal(rows []OverheadRow) (compile, estimate time.Duration, pct float64) {
	for _, r := range rows {
		compile += r.Actual
		estimate += r.Estimate
	}
	return compile, estimate, 100 * estimate.Seconds() / compile.Seconds()
}

// --- Figure 5 ---

// PlanRow compares estimated and actual generated plan counts for one query
// and join method.
type PlanRow struct {
	Query     string
	Method    props.JoinMethod
	Actual    int
	Estimated int
}

// Fig5Plans compares estimated against actual generated-plan counts per
// join method on a workload (Figures 5a-5i).
func Fig5Plans(w *workload.Workload) ([]PlanRow, error) {
	cfg := ConfigFor(w)
	var out []PlanRow
	for _, q := range w.Queries {
		res, err := opt.Optimize(q.Block, opt.Options{Level: Level, Config: cfg})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		est, err := core.EstimatePlans(q.Block, core.Options{Level: Level, Config: cfg})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		res.Release()
		actual := core.CountsFrom(res.TotalCounters())
		for m := props.JoinMethod(0); m < props.NumJoinMethods; m++ {
			out = append(out, PlanRow{
				Query: q.Name, Method: m,
				Actual:    actual.ByMethod[m],
				Estimated: est.Counts.ByMethod[m],
			})
		}
	}
	return out, nil
}

// PlanErrors summarizes Fig5 rows per method as mean relative errors.
func PlanErrors(rows []PlanRow) map[props.JoinMethod]stats.Summary {
	est := map[props.JoinMethod][]float64{}
	act := map[props.JoinMethod][]float64{}
	for _, r := range rows {
		if r.Actual == 0 {
			continue
		}
		est[r.Method] = append(est[r.Method], float64(r.Estimated))
		act[r.Method] = append(act[r.Method], float64(r.Actual))
	}
	out := map[props.JoinMethod]stats.Summary{}
	for m := range est {
		s, err := stats.Summarize(est[m], act[m])
		if err == nil {
			out[m] = s
		}
	}
	return out
}

// --- Figure 6 ---

// TimeRow compares one query's predicted compilation time with its actual.
type TimeRow struct {
	Query     string
	Actual    time.Duration
	Predicted time.Duration
	RelErr    float64
}

// TrainModel calibrates the Ct constants for a configuration by compiling
// the training workloads and regressing measured times on actual plan
// counts, exactly as Section 3.5 prescribes. One model per configuration
// (serial/parallel), as the paper keeps distinct constant sets. Each query
// contributes observations at two optimization levels, which shifts the
// NLJN:MGJN:HSJN proportions between observations and keeps the regression
// well conditioned; each observation is the fastest untimed compile with the
// fastest timed compile's generation times (core.TrainingObservation).
func TrainModel(training []*workload.Workload) (*core.TimeModel, error) {
	var pts []core.CompileObservation
	for _, w := range training {
		cfg := ConfigFor(w)
		for _, q := range w.Queries {
			for _, level := range []opt.Level{Level, opt.LevelMediumLeftDeep} {
				o, err := core.TrainingObservation(func(o opt.Options) (*opt.Result, error) { return timedOptimize(q, o) },
					opt.Options{Level: level, Config: cfg})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", q.Name, err)
				}
				pts = append(pts, o)
			}
		}
	}
	return core.Calibrate(pts)
}

// Fig6Times predicts compilation times for a workload with the calibrated
// model and compares with measured actuals (Figures 6a-6f).
func Fig6Times(w *workload.Workload, model *core.TimeModel) ([]TimeRow, error) {
	cfg := ConfigFor(w)
	var out []TimeRow
	for _, q := range w.Queries {
		res, err := timedOptimize(q, opt.Options{Level: Level, Config: cfg})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		est, err := timedEstimate(q, cfg, model)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		out = append(out, TimeRow{
			Query: q.Name, Actual: res.Elapsed, Predicted: est.PredictedTime,
			RelErr: stats.RelErr(est.PredictedTime.Seconds(), res.Elapsed.Seconds()),
		})
	}
	return out, nil
}

// TimeErrors summarizes time rows.
func TimeErrors(rows []TimeRow) stats.Summary {
	var est, act []float64
	for _, r := range rows {
		est = append(est, r.Predicted.Seconds())
		act = append(act, r.Actual.Seconds())
	}
	s, _ := stats.Summarize(est, act)
	return s
}

// --- Section 5.3: join-count baseline comparison ---

// BaselineRow compares the plan-level and join-level models on one query.
type BaselineRow struct {
	Query     string
	Actual    time.Duration
	PlanModel time.Duration
	JoinModel time.Duration
	PlanErr   float64
	JoinErr   float64
}

// JoinBaseline fits the best possible join-count model on the workload
// itself (leave-nothing-out: the most charitable treatment) and contrasts
// its per-query errors with the plan-count model's — the paper's "errors of
// 20 times larger, no matter how we chose the time per join" claim on the
// star batches.
func JoinBaseline(w *workload.Workload, model *core.TimeModel) ([]BaselineRow, error) {
	cfg := ConfigFor(w)
	var training []core.CompileObservation
	var planModel []time.Duration
	for _, q := range w.Queries {
		res, err := timedOptimize(q, opt.Options{Level: Level, Config: cfg})
		if err != nil {
			return nil, err
		}
		est, err := core.EstimatePlans(q.Block, core.Options{Level: Level, Config: cfg, Model: model})
		if err != nil {
			return nil, err
		}
		training = append(training, core.ObservationFrom(res, est))
		planModel = append(planModel, est.PredictedTime)
	}
	jmodel, err := core.CalibrateJoinCount(training)
	if err != nil {
		return nil, err
	}
	var out []BaselineRow
	for i, o := range training {
		jp := jmodel.Predict(o.Pairs)
		out = append(out, BaselineRow{
			Query:     w.Queries[i].Name,
			Actual:    o.Actual,
			PlanModel: planModel[i],
			JoinModel: jp,
			PlanErr:   stats.RelErr(planModel[i].Seconds(), o.Actual.Seconds()),
			JoinErr:   stats.RelErr(jp.Seconds(), o.Actual.Seconds()),
		})
	}
	return out, nil
}

// --- Section 6.1: pilot-pass pruning ---

// PilotRow reports the fraction of generated plans a pilot-pass bound
// prunes on one query.
type PilotRow struct {
	Query      string
	Generated  int
	Pruned     int
	PrunedFrac float64
}

// PilotPass measures pilot-pass pruning effectiveness on a workload; the
// paper's analysis found no more than 10% of plans pruned on real
// workloads.
func PilotPass(w *workload.Workload) ([]PilotRow, error) {
	cfg := ConfigFor(w)
	var out []PilotRow
	for _, q := range w.Queries {
		res, err := opt.Optimize(q.Block, opt.Options{Level: Level, Config: cfg, PilotPass: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		res.Release()
		c := res.TotalCounters()
		gen := c.TotalGenerated()
		row := PilotRow{Query: q.Name, Generated: gen, Pruned: c.PilotPruned}
		if gen > 0 {
			row.PrunedFrac = float64(c.PilotPruned) / float64(gen)
		}
		out = append(out, row)
	}
	return out, nil
}

// --- Section 6.2: memory estimation ---

// MemoryRow compares the estimator's optimizer-memory lower bound with the
// actual MEMO footprint of real optimization.
type MemoryRow struct {
	Query          string
	PredictedBytes int64
	ActualPlans    int
	ActualBytes    int64
}

// MemoryEstimates runs the Section 6.2 memory extension over a workload.
func MemoryEstimates(w *workload.Workload) ([]MemoryRow, error) {
	cfg := ConfigFor(w)
	const bytesPerPlan = 256
	var out []MemoryRow
	for _, q := range w.Queries {
		est, err := core.EstimatePlans(q.Block, core.Options{Level: Level, Config: cfg})
		if err != nil {
			return nil, err
		}
		res, err := opt.Optimize(q.Block, opt.Options{Level: Level, Config: cfg})
		if err != nil {
			return nil, err
		}
		plans := 0
		for _, b := range res.Blocks {
			plans += b.Memo.NumPlans()
		}
		res.Release()
		out = append(out, MemoryRow{
			Query:          q.Name,
			PredictedBytes: est.PredictedMemoryBytes,
			ActualPlans:    plans,
			ActualBytes:    int64(plans) * bytesPerPlan,
		})
	}
	return out, nil
}

// --- Resource accounting: calibrated memory model evaluation ---

// MemFigRow compares the memory model's predicted peak bytes with the
// measured durable high-water of the corresponding real compilation.
type MemFigRow struct {
	Workload  string
	Query     string
	Level     opt.Level
	Predicted int64
	Measured  int64
}

// Ratio returns predicted/measured (0 when nothing was measured).
func (r MemFigRow) Ratio() float64 {
	if r.Measured == 0 {
		return 0
	}
	return float64(r.Predicted) / float64(r.Measured)
}

// memObservation compiles one query at one level under an execution
// context and pairs the estimator's structural counts with the measured
// durable peak.
func memObservation(q workload.Query, cfg *cost.Config, level opt.Level) (core.CompileObservation, error) {
	est, err := core.EstimatePlans(q.Block, core.Options{Level: level, Config: cfg})
	if err != nil {
		return core.CompileObservation{}, fmt.Errorf("%s: %w", q.Name, err)
	}
	res, err := opt.OptimizeCtx(context.Background(), q.Block, opt.Options{Level: level, Config: cfg})
	if err != nil {
		return core.CompileObservation{}, fmt.Errorf("%s: %w", q.Name, err)
	}
	res.Release()
	return core.ObservationFrom(res, est), nil
}

// MemCalibrationPass runs one memory-calibration pass: it compiles every
// query of every workload at every level under an execution context, pairs
// each estimate's structural counts with the measured durable peak, and fits
// a memory model on the pooled observations — the memory-side analogue of
// fitting the Ct constants.
func MemCalibrationPass(workloads []*workload.Workload, levels []opt.Level) (*core.MemModel, error) {
	var training []core.CompileObservation
	for _, w := range workloads {
		cfg := ConfigFor(w)
		for _, q := range w.Queries {
			for _, level := range levels {
				o, err := memObservation(q, cfg, level)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.Name, err)
				}
				training = append(training, o)
			}
		}
	}
	return core.CalibrateMemory(training)
}

// MemFig evaluates a memory model on a workload: per query and level, the
// predicted peak bytes under the model against the measured durable peak of
// a real compilation. A nil model selects the uncalibrated structural
// default.
func MemFig(w *workload.Workload, levels []opt.Level, m *core.MemModel) ([]MemFigRow, error) {
	cfg := ConfigFor(w)
	var out []MemFigRow
	for _, q := range w.Queries {
		for _, level := range levels {
			o, err := memObservation(q, cfg, level)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			out = append(out, MemFigRow{
				Workload:  w.Name,
				Query:     q.Name,
				Level:     level,
				Predicted: m.Predict(o.Entries, o.EstimatedPlans, o.PropertyBytes),
				Measured:  o.PeakBytes,
			})
		}
	}
	return out, nil
}

// --- Section 6.2: multi-level piggyback ---

// PiggybackRow reports one level's estimate from a single enumeration pass.
type PiggybackRow struct {
	Query string
	Level opt.Level
	Joins int
	Plans int
}

// Piggyback estimates several optimization levels in one pass for each
// query of a workload.
func Piggyback(w *workload.Workload, levels []opt.Level) ([]PiggybackRow, error) {
	cfg := ConfigFor(w)
	var out []PiggybackRow
	for _, q := range w.Queries {
		ests, err := core.EstimateLevels(q.Block, levels, core.Options{Config: cfg})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		for i, l := range levels {
			out = append(out, PiggybackRow{
				Query: q.Name, Level: l,
				Joins: ests[i].Joins, Plans: ests[i].Counts.Total(),
			})
		}
	}
	return out, nil
}

// --- Ablations (DESIGN.md section 5) ---

// AblationRow compares estimator variants on one workload.
type AblationRow struct {
	Variant   string
	TotalEst  int
	TotalAct  int
	MeanErr   float64
	Elapsed   time.Duration
	PropBytes int
}

// Ablations runs the estimator design-choice ablations on a workload:
// separate vs compound lists, and first-join-only vs every-join
// propagation.
func Ablations(w *workload.Workload) ([]AblationRow, error) {
	cfg := ConfigFor(w)
	variants := []struct {
		name string
		opts core.Options
	}{
		{"separate+firstjoin (paper)", core.Options{Level: Level, Config: cfg}},
		{"compound lists", core.Options{Level: Level, Config: cfg, ListMode: core.CompoundLists}},
		{"propagate every join", core.Options{Level: Level, Config: cfg, PropagateEveryJoin: true}},
	}
	var out []AblationRow
	for _, v := range variants {
		row := AblationRow{Variant: v.name}
		var est, act []float64
		start := time.Now()
		for _, q := range w.Queries {
			res, err := opt.Optimize(q.Block, opt.Options{Level: Level, Config: cfg})
			if err != nil {
				return nil, err
			}
			e, err := core.EstimatePlans(q.Block, v.opts)
			if err != nil {
				return nil, err
			}
			res.Release()
			actual := core.CountsFrom(res.TotalCounters())
			row.TotalEst += e.Counts.Total()
			row.TotalAct += actual.Total()
			est = append(est, float64(e.Counts.Total()))
			act = append(act, float64(actual.Total()))
			row.PropBytes += e.PropertyBytes
		}
		row.Elapsed = time.Since(start)
		s, _ := stats.Summarize(est, act)
		row.MeanErr = s.Mean
		out = append(out, row)
	}
	return out, nil
}

// --- Extensions: pipeline property and statement cache ---

// PipelineRow compares plan counts with and without FETCH FIRST for one
// star shape.
type PipelineRow struct {
	Query                   string
	PlainActual, PlainEst   int
	FirstNActual, FirstNEst int
}

// PipelineExtension measures how the pipelineability property (Table 1)
// grows the search space and how the estimator tracks it, on the star
// workload with FETCH FIRST 10 added.
func PipelineExtension() ([]PipelineRow, error) {
	var out []PipelineRow
	for _, n := range []int{6, 8} {
		for preds := 1; preds <= 3; preds++ {
			row := PipelineRow{Query: fmt.Sprintf("star_n%d_p%d", n, preds)}
			for _, firstN := range []int{0, 10} {
				blk := starNoSort(n, preds, firstN)
				res, err := opt.Optimize(blk, opt.Options{Level: Level})
				if err != nil {
					return nil, err
				}
				res.Release()
				blk2 := starNoSort(n, preds, firstN)
				est, err := core.EstimatePlans(blk2, core.Options{Level: Level})
				if err != nil {
					return nil, err
				}
				if firstN == 0 {
					row.PlainActual = core.CountsFrom(res.TotalCounters()).Total()
					row.PlainEst = est.Counts.Total()
				} else {
					row.FirstNActual = core.CountsFrom(res.TotalCounters()).Total()
					row.FirstNEst = est.Counts.Total()
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// starNoSort builds a star query without ORDER BY / GROUP BY (so that
// pipelineability stays interesting under FETCH FIRST firstN, when positive).
func starNoSort(n, preds, firstN int) *query.Block {
	w := workload.Star(1)
	// Rebuild the same shape without the sorting clauses via the catalog.
	cat := w.Catalog
	qb := query.NewBuilder(fmt.Sprintf("star_fn_n%d_p%d", n, preds), cat)
	for t := 0; t < n; t++ {
		qb.AddTable(fmt.Sprintf("t%d", t), "")
	}
	for s := 1; s < n; s++ {
		for k := 0; k < preds; k++ {
			qb.JoinEq("t0", fmt.Sprintf("jc%d_%d", s, k), fmt.Sprintf("t%d", s), fmt.Sprintf("jc0_%d", k))
		}
	}
	qb.FetchFirst(firstN)
	blk, err := qb.Build()
	if err != nil {
		panic(err)
	}
	return blk
}

// CacheRow summarizes the statement-cache baseline on one workload replayed
// twice.
type CacheRow struct {
	Workload     string
	FirstPassHit int
	ReplayHit    int
	Queries      int
}

// StatementCacheExtension replays a workload twice through the Section 1.2
// statement cache: the first (ad-hoc) pass misses everything, the replay
// hits everything — the behaviour that makes the cache useless for exactly
// the ad-hoc queries the COTE targets.
func StatementCacheExtension(w *workload.Workload) (CacheRow, error) {
	cfg := ConfigFor(w)
	cache := NewStatementCache(len(w.Queries))
	row := CacheRow{Workload: w.Name, Queries: len(w.Queries)}
	for pass := 0; pass < 2; pass++ {
		hits := 0
		for _, q := range w.Queries {
			if _, ok := cache.Lookup(q.Block); ok {
				hits++
				continue
			}
			res, err := opt.Optimize(q.Block, opt.Options{Level: Level, Config: cfg})
			if err != nil {
				return row, err
			}
			res.Release()
			cache.Record(q.Block, res.Elapsed)
		}
		if pass == 0 {
			row.FirstPassHit = hits
		} else {
			row.ReplayHit = hits
		}
	}
	return row, nil
}
