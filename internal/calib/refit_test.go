package calib

import (
	"math"
	"testing"

	"cote/internal/core"
	"cote/internal/props"
)

// untimedWindow feeds the calibrator one untimed observation (no GenSeconds,
// as a production compile records) per count vector, measured by truth.
func untimedWindow(cal *Calibrator, truth *core.TimeModel, n int) []core.CompileObservation {
	var window []core.CompileObservation
	for _, c := range varied(n) {
		o := syntheticObs(truth, nil, c)
		cal.ObserveCompile(o)
		window = append(window, o)
	}
	return window
}

// A window of untimed observations keeps the incumbent's Ct proportions,
// although the window's own are different: the refit moves only their
// common scale and C0. With proportions that are powers of two, scaling
// commutes with rounding and Ratio is bit-identical; with others,
// (s·a)/(s·b) may round differently from a/b, so the 5:2:4 incumbent is held
// to within a few ulps.
func TestRecalibrateKeepsIncumbentRatio(t *testing.T) {
	for _, tc := range []struct {
		name             string
		incumbent, truth *core.TimeModel
		ulps             float64
	}{
		{"4:1:2", model(32, 8, 16, 1000), model(7.5, 3, 6, 9000), 0},
		{"5:2:4", model(20, 8, 16, 1000), model(9, 3, 6, 9000), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry(0)
			reg.Install(tc.incumbent, "calibrate", 0, 0)
			cal := NewCalibrator(reg, Config{DriftThreshold: -1}) // manual refits only
			untimedWindow(cal, tc.truth, 2*DefaultMinSamples)
			v, err := cal.Recalibrate("recalibrate")
			if err != nil {
				t.Fatalf("recalibrate: %v", err)
			}
			got, inc := v.Model, tc.incumbent
			gr, ir := got.Ratio(), inc.Ratio()
			for m := range gr {
				if d := math.Abs(gr[m] - ir[m]); d > tc.ulps*ulp(ir[m]) {
					t.Errorf("%v: ratio %v, incumbent's %v", props.JoinMethod(m), gr, ir)
				}
			}
			scale := got.C[props.NLJN] / inc.C[props.NLJN]
			for m := range got.C {
				if s := got.C[m] / inc.C[m]; math.Abs(s-scale) > tc.ulps*ulp(scale) {
					t.Errorf("%v scaled by %v, NLJN by %v", props.JoinMethod(m), s, scale)
				}
			}
			if scale == 1 || got.C0 == inc.C0 {
				t.Errorf("refit %+v kept the incumbent's scale or C0 (%+v)", got, inc)
			}
			if got.Tinst != inc.Tinst {
				t.Errorf("Tinst %v, incumbent's %v", got.Tinst, inc.Tinst)
			}
		})
	}
}

func ulp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

// With no incumbent there are no proportions to keep: the first refit fits
// the per-method constants freely, as Calibrate does on observations without
// per-method times.
func TestRecalibrateWithoutIncumbentFitsFreely(t *testing.T) {
	truth := model(5, 2, 4, 4000)
	reg := NewRegistry(0)
	cal := NewCalibrator(reg, Config{DriftThreshold: -1})
	window := untimedWindow(cal, truth, 2*DefaultMinSamples)
	v, err := cal.Recalibrate("recalibrate")
	if err != nil {
		t.Fatalf("recalibrate: %v", err)
	}
	want, err := core.Calibrate(window)
	if err != nil {
		t.Fatal(err)
	}
	if *v.Model != *want {
		t.Fatalf("installed %+v, the free fit is %+v", v.Model, want)
	}
	for m := range truth.C {
		if math.Abs(v.Model.C[m]-truth.C[m]) > 1e-3*truth.C[m] {
			t.Fatalf("free fit %+v does not recover %+v", v.Model, truth)
		}
	}
}
