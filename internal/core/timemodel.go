package core

import (
	"errors"
	"fmt"
	"time"

	"cote/internal/props"
	"cote/internal/stats"
)

// TimeModel converts plan counts to a compilation-time prediction with the
// paper's linear model (Section 3.5):
//
//	T = Tinst * (sum over join types t of Ct * Pt  +  C0)
//
// Tinst is the machine-dependent seconds-per-instruction-like scale, Ct is
// the per-method cost of generating one join plan (in abstract instruction
// units), Pt the estimated plan count, and C0 a fixed per-query overhead
// absorbing the non-join work ("other" in Figure 2).
type TimeModel struct {
	Tinst float64
	C     [props.NumJoinMethods]float64
	C0    float64
}

// Predict returns the compilation-time prediction for the plan counts.
func (m *TimeModel) Predict(counts PlanCounts) time.Duration {
	instr := m.C0
	for t, p := range counts.ByMethod {
		instr += m.C[t] * float64(p)
	}
	return time.Duration(m.Tinst * instr * float64(time.Second))
}

// Ratio returns the Cm : Cn : Ch proportions normalized so the smallest
// non-zero constant is 1 — the form in which the paper reports DB2's ratios
// (5:2:4 serial, 6:1:2 parallel).
func (m *TimeModel) Ratio() [props.NumJoinMethods]float64 {
	min := 0.0
	for _, c := range m.C {
		if c > 0 && (min == 0 || c < min) {
			min = c
		}
	}
	var out [props.NumJoinMethods]float64
	if min == 0 {
		return out
	}
	for t, c := range m.C {
		out[t] = c / min
	}
	return out
}

// String renders the model compactly.
func (m *TimeModel) String() string {
	r := m.Ratio()
	return fmt.Sprintf("TimeModel{Cm:Cn:Ch = %.1f:%.1f:%.1f, C0=%.0f, Tinst=%.3g}",
		r[props.MGJN], r[props.NLJN], r[props.HSJN], m.C0, m.Tinst)
}

// Calibrate fits the time model on observations of a training workload
// (TrainingObservation), once per database "release" or configuration (the
// paper refits per release and keeps distinct serial and parallel constant
// sets). The Ct proportions are each method's measured generation time per
// plan (GenSeconds); Refit then fits their common scale and C0 from Counts
// and Actual. Tinst is fixed at 1/10^9 — a nominal nanosecond-scale
// instruction — so the constants carry the machine-specific magnitudes. A
// training set without per-method times is refused: counts alone cannot
// separate the methods when they are nearly collinear.
func Calibrate(training []CompileObservation) (*TimeModel, error) {
	if len(training) < int(props.NumJoinMethods)+1 {
		return nil, errors.New("core: need more training queries than model constants")
	}
	shares := &TimeModel{Tinst: nominalTinst}
	var cnt [props.NumJoinMethods]float64
	for _, tp := range training {
		for t := range shares.C {
			shares.C[t] += tp.GenSeconds[t] / nominalTinst
			cnt[t] += float64(tp.Counts.ByMethod[t])
		}
	}
	timed := false
	for t := range shares.C {
		if shares.C[t] > 0 && cnt[t] > 0 {
			shares.C[t] /= cnt[t]
			timed = true
		}
	}
	if !timed {
		return nil, errors.New("core: training observations carry no per-method generation times")
	}
	return Refit(shares, training)
}

// nominalTinst is the Tinst of a model Calibrate fits.
const nominalTinst = 1e-9

// Refit keeps prior's Tinst and Ct proportions and refits, from the
// observations' Counts and Actual alone, the common scale of the Ct and C0:
// the paper fits the proportions once per release (§4) and only rescales
// afterwards. Tinst stays put because the meta-optimizer converts plan
// execution cost to time at it; a refit that moved Tinst would move that
// side of its recompile decision too. Rows are weighted by 1/actual so the
// fit minimizes relative rather than absolute error — the metric the paper
// evaluates on. It needs no per-method timings, so it is what the online
// loop runs on production compiles.
func Refit(prior *TimeModel, training []CompileObservation) (*TimeModel, error) {
	// The C0 regressor is unit/actual, not 1/actual: in units of the mean
	// actual both regressors are of order one, where 1/actual alone is so
	// small that the normal equations look singular and the solver's ridge
	// fallback shrinks C0.
	unit := 0.0
	for _, tp := range training {
		unit += actualUnits(tp, prior.Tinst) / float64(len(training))
	}
	x := make([][]float64, len(training))
	y := make([]float64, len(training))
	for i, tp := range training {
		actual := actualUnits(tp, prior.Tinst)
		base := 0.0
		for t, p := range tp.Counts.ByMethod {
			base += prior.C[t] * float64(p)
		}
		x[i] = []float64{base / actual, unit / actual}
		y[i] = 1
	}
	beta, err := stats.NonNegativeOLS(x, y)
	if err != nil {
		return nil, fmt.Errorf("core: calibration failed: %w", err)
	}
	if beta[0] <= 0 {
		return nil, errors.New("core: refit found no positive scale for the model")
	}
	m := &TimeModel{Tinst: prior.Tinst, C0: beta[1] * unit}
	for t := range m.C {
		m.C[t] = beta[0] * prior.C[t]
	}
	return m, nil
}

// actualUnits is an observation's measured time in units of tinst, at least
// one unit.
func actualUnits(o CompileObservation, tinst float64) float64 {
	if a := o.Actual.Seconds() / tinst; a > 0 {
		return a
	}
	return 1
}
