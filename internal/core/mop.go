package core

import (
	"context"
	"errors"
	"time"

	"cote/internal/cost"
	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/query"
)

// MOPDecision records what the meta-optimizer chose and why.
type MOPDecision struct {
	// LowPlanExecCost is E: the estimated execution time of the plan found
	// at the low optimization level.
	LowPlanExecCost time.Duration
	// HighCompileEstimate is C: the estimated compilation time of the high
	// level.
	HighCompileEstimate time.Duration
	// Recompiled reports whether C < threshold*E triggered high-level
	// reoptimization.
	Recompiled bool
	// FinalLevel is the level whose plan was returned.
	FinalLevel opt.Level
	// FinalPlanCost is the execution cost estimate of the returned plan,
	// as a duration.
	FinalPlanCost time.Duration
	// TotalElapsed is the wall time the whole meta-optimization took
	// (low-level compile + estimation + optional high-level compile).
	TotalElapsed time.Duration
	// AbortedLevels lists the levels whose recompilation was started and
	// then aborted because actual generated-plan progress overran the
	// prediction by more than the budget factor — the graceful-degradation
	// path when the time model is wrong.
	AbortedLevels []opt.Level
	// HighPredictedPeakBytes is the memory model's predicted peak for the
	// high level — the number the memory admission check gates on.
	HighPredictedPeakBytes int64
	// MemSkippedLevels lists the levels never started because their
	// predicted peak memory already exceeded MemBudget; MemAbortedLevels
	// lists the levels started and then aborted because measured usage
	// crossed the budget (the memory analogue of AbortedLevels).
	MemSkippedLevels []opt.Level
	MemAbortedLevels []opt.Level
	// FinalPeakBytes is the measured durable memory high-water mark of the
	// compilation whose plan was returned (zero for the unaccounted paths).
	FinalPeakBytes int64
}

// MOP is the simple meta-optimizer of Figure 1: compile at the low level,
// obtain the execution-cost estimate E of the plan found, ask the COTE for
// the high level's compilation time C, and recompile at the high level only
// when C < E (C < 10*E for a static query) — if the query would finish
// executing before the high-level optimizer does, further optimization is
// pointless.
type MOP struct {
	// High is the high optimization level (default LevelHighInner2).
	High opt.Level
	// Config selects serial or parallel.
	Config *cost.Config
	// Models supplies the current time and memory models, read once per
	// Run, so calibration swaps apply to the next meta-optimization. It
	// must yield a time model.
	Models ModelProvider
	// Observer, when non-nil, receives one CompileObservation per real
	// compilation the meta-optimizer runs (the low-level compile and any
	// successful recompilation) — the feedback that keeps an online
	// calibrator's model honest.
	Observer CompileObserver
	// Static marks a statically compiled (repeatedly executed) query; the
	// paper suggests spending more on those, modeled as recompiling when
	// C < 10*E.
	Static bool
	// BudgetFactor, when positive, arms the budget abort on the high-level
	// recompilation: if it generates more than BudgetFactor times the
	// COTE-predicted plan count, the compile is aborted and retried at the
	// next-lower level (down to the greedy floor). Zero disables the abort —
	// the prediction is trusted unconditionally, the pre-budget behaviour.
	BudgetFactor float64
	// MemBudget, when positive, bounds each recompilation rung's optimizer
	// memory in bytes — twice over: a rung whose predicted peak already
	// exceeds the budget is skipped without compiling (admission on the
	// prediction), and a started rung aborts when its measured usage
	// crosses the budget (enforcement on the measurement). Either way the
	// ladder drops to the next-lower level. Zero disables both.
	MemBudget int64
}

// Run executes the meta-optimization loop on a query and returns the chosen
// plan's result plus the decision record.
func (m *MOP) Run(blk *query.Block) (*opt.Result, *MOPDecision, error) {
	return m.RunCtx(context.Background(), blk)
}

// RunCtx is Run bounded by a context and — when BudgetFactor is set — by
// the predicted plan count: the high-level recompilation runs under an
// execution context armed with a generated-plan budget, and an overrun
// aborts it and retries at the next-lower level instead of returning an
// error. ctx expiry, in contrast, aborts the whole meta-optimization.
func (m *MOP) RunCtx(ctx context.Context, blk *query.Block) (*opt.Result, *MOPDecision, error) {
	start := time.Now()
	high := m.High
	if high == opt.LevelLow {
		high = opt.LevelHighInner2
	}
	eopts := Options{Level: high, Config: m.Config}
	if m.Models != nil {
		eopts.Model = m.Models.CurrentModel()
		eopts.MemModel = m.Models.CurrentMemModel()
	}
	// Plan execution cost units convert to time at the model's Tinst.
	var execTinst float64
	if eopts.Model != nil {
		execTinst = eopts.Model.Tinst
	}
	// The paper's "if C is larger than E, there is no point in further
	// optimization"; a static query is worth ten times more.
	threshold := 1.0
	if m.Static {
		threshold = 10
	}

	low, err := opt.OptimizeCtx(ctx, blk, opt.Options{Level: opt.LevelLow, Config: m.Config})
	if err != nil {
		return nil, nil, err
	}
	// The low-level compile carries no prediction (nothing priced it), but
	// its counts and time still train the calibrator — and decorrelate the
	// regression from the high-level observations.
	m.observe(blk, opt.LevelLow, 0, nil, low)
	dec := &MOPDecision{
		LowPlanExecCost: time.Duration(low.Plan.Cost * execTinst * float64(time.Second)),
		FinalLevel:      opt.LevelLow,
		FinalPlanCost:   time.Duration(low.Plan.Cost * execTinst * float64(time.Second)),
	}

	est, err := EstimatePlansCtx(ctx, blk, eopts)
	if err != nil {
		low.Release()
		return nil, nil, err
	}
	dec.HighCompileEstimate = est.PredictedTime
	dec.HighPredictedPeakBytes = est.PredictedPeakBytes

	result := low
	dec.FinalPeakBytes = low.Resources.DurablePeakBytes
	if float64(dec.HighCompileEstimate) < threshold*float64(dec.LowPlanExecCost) {
		res, level, err := m.recompile(ctx, blk, eopts, est, dec)
		if err != nil {
			low.Release()
			return nil, nil, err
		}
		if res != nil {
			dec.Recompiled = true
			dec.FinalLevel = level
			dec.FinalPlanCost = time.Duration(res.Plan.Cost * execTinst * float64(time.Second))
			dec.FinalPeakBytes = res.Resources.DurablePeakBytes
			result = res
			low.Release() // discarded: its workspace serves the next compile
		}
	}
	dec.TotalElapsed = time.Since(start)
	return result, dec, nil
}

// recompile walks the level ladder downward from eopts.Level (est is its
// estimate), running each level under a plan budget of BudgetFactor times
// its COTE prediction and — when MemBudget is set — under the memory
// budget, skipping rungs whose predicted peak already exceeds it. A budget overrun (plans or bytes) records the
// aborted level and drops to the next-lower one (re-estimating its plan
// count); when every DP level aborts, recompile returns nil and the caller
// keeps the greedy plan. Context errors propagate — a deadline ends the
// whole loop, not one rung.
func (m *MOP) recompile(ctx context.Context, blk *query.Block, eopts Options, est *Estimate, dec *MOPDecision) (*opt.Result, opt.Level, error) {
	high := eopts.Level
	for level := high; level != opt.LevelLow; level = level.NextLower() {
		if level != high {
			// Dropping a rung changes the search space, so the budget's
			// baseline must be re-predicted for the new level.
			eopts.Level = level
			var err error
			est, err = EstimatePlansCtx(ctx, blk, eopts)
			if err != nil {
				return nil, 0, err
			}
		}
		if m.MemBudget > 0 && est.PredictedPeakBytes > m.MemBudget {
			// Admission on the prediction: don't start a compile the model
			// already expects to blow the budget.
			dec.MemSkippedLevels = append(dec.MemSkippedLevels, level)
			continue
		}
		oc := optctx.New(ctx)
		if m.BudgetFactor > 0 {
			total := int64(est.Counts.Total())
			oc.SetPredictedPlans(total)
			oc.SetPlanBudget(int64(m.BudgetFactor * float64(total)))
		}
		oc.SetMemBudget(m.MemBudget)
		res, err := opt.OptimizeWith(oc, blk, opt.Options{Level: level, Config: m.Config})
		if err == nil {
			// One prediction, one measurement: the pair the drift detector
			// scores the model on.
			m.observe(blk, level, est.PredictedTime, est, res)
			return res, level, nil
		}
		// An aborted compile returned its workspaces to the pool itself.
		switch {
		case errors.Is(err, optctx.ErrBudgetExceeded):
			dec.AbortedLevels = append(dec.AbortedLevels, level)
		case errors.Is(err, optctx.ErrMemBudgetExceeded):
			dec.MemAbortedLevels = append(dec.MemAbortedLevels, level)
		default:
			return nil, 0, err
		}
	}
	return nil, 0, nil
}

// observe forwards one real compilation to the observer, if any. est, when
// non-nil, supplies the estimate-side regressors of the same level.
func (m *MOP) observe(blk *query.Block, level opt.Level, predicted time.Duration, est *Estimate, res *opt.Result) {
	if m.Observer == nil {
		return
	}
	o := ObservationFrom(res, est)
	o.Level, o.Fingerprint, o.Predicted = level, fingerprint.Of(blk), predicted
	m.Observer.ObserveCompile(o)
}
