package calib

import (
	"testing"

	"cote/internal/core"
	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/stats"
	"cote/internal/workload"
)

// The acceptance path of the calibration subsystem, end to end and fully
// deterministic: a deliberately 4x mis-scaled model prices a replayed
// workload whose plan counts come from the estimator and whose "measured"
// durations are synthesized from the true model (no wall clocks anywhere).
// The drift detector must fire, the refit over the observation window must
// cut held-out prediction error by far more than 2x, the registry version
// must advance with the seed still retrievable, and drift must stay quiet
// once the healed model is doing the pricing.
func TestEndToEndCalibrationConvergence(t *testing.T) {
	trueModel := model(5, 2, 4, 4200)
	seed := model(20, 8, 16, 16800) // every coefficient x4
	reg := NewRegistry()
	reg.Install(seed, "seed", 0, 0)
	// Observations are recorded without the automatic refit, so the test
	// can observe the drift signal itself rather than racing the auto path
	// to it.
	cal := NewCalibrator(reg, nil)

	// Plan counts are the estimator's (deterministic per query and level);
	// two levels per query decorrelate the per-method counts exactly as the
	// offline calibration workloads do.
	collect := func(w *workload.Workload) []core.CompileObservation {
		t.Helper()
		var out []core.CompileObservation
		for _, q := range w.Queries {
			for _, level := range []opt.Level{opt.LevelHighInner2, opt.LevelMediumLeftDeep} {
				est, err := core.EstimatePlans(q.Block, core.Options{Level: level})
				if err != nil {
					t.Fatalf("estimate %s: %v", q.Name, err)
				}
				o := syntheticObs(trueModel, nil, est.Counts)
				o.Level = level
				o.Fingerprint = fingerprint.Of(q.Block)
				out = append(out, o)
			}
		}
		return out
	}
	replay := append(collect(workload.Linear(1)), collect(workload.Random(42, 12, 10, 1))...)
	heldOut := collect(workload.Real1(1))
	meanErr := func(m *core.TimeModel) float64 {
		var sum float64
		for _, h := range heldOut {
			sum += stats.RelErr(m.Predict(h.Counts).Seconds(), h.Actual.Seconds())
		}
		return sum / float64(len(heldOut))
	}

	seedErr := meanErr(seed)
	if seedErr < 1 {
		t.Fatalf("mis-scaled seed only %.0f%% off; the fixture lost its point", seedErr*100)
	}

	// Phase 1: the mis-scaled model prices the replay; drift must fire.
	for _, o := range replay {
		o.Predicted = reg.CurrentModel().Predict(o.Counts)
		cal.record(o)
	}
	if st := cal.Stats(); !st.Degraded {
		t.Fatalf("drift detector silent under a 4x mis-scaled model (drift %.2f)", st.Drift)
	}

	// Phase 2: refit over the window.
	v, err := cal.Recalibrate("recalibrate")
	if err != nil {
		t.Fatalf("recalibrate: %v", err)
	}
	if v.Version != 2 || reg.Version() != 2 {
		t.Fatalf("registry at v%d after refit, want 2", reg.Version())
	}
	refitErr := meanErr(reg.CurrentModel())
	if refitErr > seedErr/2 {
		t.Fatalf("held-out error %.1f%% -> %.1f%%: improved less than 2x", seedErr*100, refitErr*100)
	}
	if old, ok := reg.Get(1); !ok || *old.Model != *seed {
		t.Fatal("seed version no longer retrievable after recalibration")
	}

	// Phase 3: the healed model prices the same replay; drift stays quiet.
	for _, o := range replay {
		o.Predicted = reg.CurrentModel().Predict(o.Counts)
		cal.record(o)
	}
	st := cal.Stats()
	if st.Degraded {
		t.Fatalf("drift fired under the recalibrated model (drift %.2f)", st.Drift)
	}
	if st.Drift > DriftThreshold/2 {
		t.Fatalf("residual drift %.2f suspiciously high after convergence", st.Drift)
	}
}
