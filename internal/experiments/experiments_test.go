package experiments

import (
	"testing"

	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/workload"
)

func TestFig2BreakdownJoinWorkDominates(t *testing.T) {
	row, err := Fig2Breakdown(workload.Star(1))
	if err != nil {
		t.Fatal(err)
	}
	sum := row.MGJN + row.NLJN + row.HSJN + row.PlanSaving + row.Other
	if sum < 99 || sum > 101 {
		t.Fatalf("breakdown sums to %.1f%%", sum)
	}
	joinShare := row.MGJN + row.NLJN + row.HSJN + row.PlanSaving
	if joinShare < 50 {
		t.Fatalf("join optimization share %.0f%% — the paper reports >90%%", joinShare)
	}
}

func TestFig4OverheadSmall(t *testing.T) {
	rows, err := Fig4Overhead(workload.Real1(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper reports 0.3%-3%; against this optimizer's leaner costing the
	// figure is 9-12% (EXPERIMENTS.md). The bound is on the workload's
	// totals: in a mean of per-query percentages one 70µs query that caught
	// a GC cycle reads 96% and carries the average.
	if compile, estimate, pct := OverheadTotal(rows); pct > 30 {
		t.Fatalf("estimation took %.1f%% of the workload's compilation time (%v of %v)", pct, estimate, compile)
	}
}

func TestFig5StarSerialMatchesPaperShape(t *testing.T) {
	rows, err := Fig5Plans(workload.Star(1))
	if err != nil {
		t.Fatal(err)
	}
	errs := PlanErrors(rows)
	// HSJN exact; NLJN under ~30%; MGJN under ~15% (paper: <30% / <14%).
	if e := errs[props.HSJN]; e.Max != 0 {
		t.Fatalf("HSJN not exact on star_s: %+v", e)
	}
	if e := errs[props.NLJN]; e.Mean > 0.30 {
		t.Fatalf("NLJN mean error %.0f%% > 30%%", e.Mean*100)
	}
	if e := errs[props.MGJN]; e.Mean > 0.20 {
		t.Fatalf("MGJN mean error %.0f%% > 20%%", e.Mean*100)
	}
}

func TestFig6StarSerialWithinPaperBounds(t *testing.T) {
	model, err := TrainModel([]*workload.Workload{workload.Linear(1), workload.Random(42, 10, 9, 1)})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Fig6Times(workload.Star(1), model)
	if err != nil {
		t.Fatal(err)
	}
	s := TimeErrors(rows)
	// Paper: within 30% on star_s. Wall clocks wobble; bound the mean at
	// 50% in tests and report the true numbers in the bench harness.
	if s.Mean > 0.50 {
		t.Fatalf("mean time-prediction error %.0f%%", s.Mean*100)
	}
}

func TestJoinBaselineWorseWithinBatches(t *testing.T) {
	model, err := TrainModel([]*workload.Workload{workload.Linear(1), workload.Random(42, 10, 9, 1)})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := JoinBaseline(workload.Star(1), model)
	if err != nil {
		t.Fatal(err)
	}
	var planMean, joinMean float64
	for _, r := range rows {
		planMean += r.PlanErr
		joinMean += r.JoinErr
	}
	planMean /= float64(len(rows))
	joinMean /= float64(len(rows))
	if joinMean <= planMean {
		t.Fatalf("join-count baseline (%.0f%%) not worse than plan model (%.0f%%)",
			joinMean*100, planMean*100)
	}
}

func TestPilotPassModest(t *testing.T) {
	rows, err := PilotPass(workload.Real1(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PrunedFrac > 0.5 {
			t.Errorf("%s: pilot pass pruned %.0f%% of plans", r.Query, r.PrunedFrac*100)
		}
	}
}

func TestMemoryEstimatesLowerBound(t *testing.T) {
	rows, err := MemoryEstimates(workload.Star(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PredictedBytes <= 0 {
			t.Fatalf("%s: no memory estimate", r.Query)
		}
	}
}

func TestPiggybackLevels(t *testing.T) {
	levels := []opt.Level{opt.LevelMediumLeftDeep, opt.LevelHighInner2, opt.LevelHigh}
	rows, err := Piggyback(workload.Real1(1), levels)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8*len(levels) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Within one query, higher levels never see fewer joins.
	for i := 0; i+2 < len(rows); i += 3 {
		if rows[i].Joins > rows[i+2].Joins {
			t.Fatalf("%s: left-deep joins %d > bushy joins %d",
				rows[i].Query, rows[i].Joins, rows[i+2].Joins)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	rows, err := Ablations(workload.Real1(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Compound lists must use at least as much property memory as separate
	// lists (the paper's space argument for keeping them separate).
	if rows[1].PropBytes < rows[0].PropBytes {
		t.Fatalf("compound lists used less memory (%d) than separate (%d)",
			rows[1].PropBytes, rows[0].PropBytes)
	}
}

func TestConfigFor(t *testing.T) {
	if ConfigFor(workload.Star(1)).Nodes != 1 || ConfigFor(workload.Star(4)).Nodes != 4 {
		t.Fatal("ConfigFor suffix mapping wrong")
	}
}

func TestPipelineExtension(t *testing.T) {
	rows, err := PipelineExtension()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FirstNActual <= r.PlainActual {
			t.Fatalf("%s: FETCH FIRST did not grow actual counts (%d vs %d)",
				r.Query, r.FirstNActual, r.PlainActual)
		}
		if r.FirstNEst != r.FirstNActual {
			t.Errorf("%s: pipeline estimate %d != actual %d",
				r.Query, r.FirstNEst, r.FirstNActual)
		}
	}
}

func TestStatementCacheExtension(t *testing.T) {
	row, err := StatementCacheExtension(workload.TPCH(1))
	if err != nil {
		t.Fatal(err)
	}
	if row.FirstPassHit != 0 {
		t.Fatalf("ad-hoc pass had %d hits", row.FirstPassHit)
	}
	if row.ReplayHit != row.Queries {
		t.Fatalf("replay hit %d of %d", row.ReplayHit, row.Queries)
	}
}

// TestMemFigWithinTwofold is the acceptance bar of the resource-accounting
// layer: after one calibration pass on the synthetic workloads, the memory
// model's predicted peak is within 2x (either direction) of the measured
// durable high-water on every query of every evaluation workload at every DP
// level. Both sides are deterministic — structural counts and canonical-point
// charges — so the bound is exact, not statistical.
func TestMemFigWithinTwofold(t *testing.T) {
	if testing.Short() {
		t.Skip("full calibration + evaluation sweep skipped in -short")
	}
	levels := []opt.Level{opt.LevelMediumLeftDeep, opt.LevelMediumZigZag, opt.LevelHighInner2}
	model, err := MemCalibrationPass(
		[]*workload.Workload{workload.Linear(1), workload.Star(1), workload.Random(42, 12, 10, 1)}, levels)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*workload.Workload{workload.Real1(1), workload.Real2(1), workload.TPCH(1)} {
		rows, err := MemFig(w, levels, model)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Measured <= 0 || r.Predicted <= 0 {
				t.Fatalf("%s/%s %v: predicted %d, measured %d — both must be positive",
					r.Workload, r.Query, r.Level, r.Predicted, r.Measured)
			}
			if ratio := r.Ratio(); ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%s/%s %v: predicted %d B vs measured %d B (%.2fx) — outside the 2x acceptance band",
					r.Workload, r.Query, r.Level, r.Predicted, r.Measured, ratio)
			}
		}
	}
}
