package calib

import (
	"errors"
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
// common scale and C0, and keeps Tinst. With proportions that are powers of
// two, scaling commutes with rounding and Ratio is bit-identical; with
// others, (s·a)/(s·b) may round differently from a/b, so the 5:2:4
// incumbent is held to within a few ulps.
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

// Successive refits rescale the proportions the loop started from, not the
// previous refit's rounded constants, so rounding never compounds: every
// installed model is exactly core.Refit of the first incumbent over that
// refit's window. A model installed from outside the loop becomes the new
// starting point.
func TestSuccessiveRefitsRescaleTheFirstProportions(t *testing.T) {
	first := model(20, 8, 16, 1000)
	reg := NewRegistry(0)
	reg.Install(first, "release", 0, 0)
	cal := NewCalibrator(reg, Config{DriftThreshold: -1})
	refitOn := func(step int, truth, from *core.TimeModel) {
		t.Helper()
		window := untimedWindow(cal, truth, DefaultLogCapacity)
		v, err := cal.Recalibrate("recalibrate")
		if err != nil {
			t.Fatalf("refit %d: %v", step, err)
		}
		want, err := core.Refit(from, window)
		if err != nil {
			t.Fatal(err)
		}
		if *v.Model != *want {
			t.Fatalf("refit %d installed %+v, want Refit of %+v: %+v", step, *v.Model, *from, *want)
		}
	}
	for step := 0; step < 12; step++ {
		s := float64(1 + step%2*2) // alternate, so every candidate wins
		refitOn(step, model(9*s, 3*s, 7*s, 9000), first)
	}
	api := model(24, 8, 12, 500)
	reg.Install(api, "api", 0, 0)
	refitOn(12, model(27, 9, 14, 2000), api)
	refitOn(13, model(9, 3, 7, 9000), api)
}

// With no incumbent there are no proportions to rescale: Recalibrate
// refuses and installs nothing, and the automatic loop never attempts a
// refit however many observations arrive.
func TestRecalibrateWithoutIncumbentRefuses(t *testing.T) {
	reg := NewRegistry(0)
	cal := NewCalibrator(reg, Config{})
	untimedWindow(cal, model(5, 2, 4, 4000), 2*DefaultMinSamples)
	if st := cal.Stats(); st.Recalibrations != 0 || st.Failures != 0 || st.Rejected != 0 {
		t.Fatalf("the loop attempted a refit without an incumbent: %+v", st)
	}
	if v, err := cal.Recalibrate("recalibrate"); !errors.Is(err, ErrNoIncumbent) || v != nil {
		t.Fatalf("recalibrate without an incumbent: %v, %v; want ErrNoIncumbent", v, err)
	}
	if st := cal.Stats(); reg.Version() != 0 || st.Recalibrations != 0 || st.Failures != 0 || st.Rejected != 0 {
		t.Fatalf("refused refit left registry v%d, stats %+v", reg.Version(), st)
	}
}
