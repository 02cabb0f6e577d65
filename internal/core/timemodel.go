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

// Calibrate fits the per-method constants by non-negative least squares on
// observations of a training workload compiled normally (their Counts,
// Actual and GenSeconds), one regression per database "release" or
// configuration (the paper refits per release and keeps distinct serial and
// parallel constant sets). Rows are weighted by 1/actual so the fit
// minimizes relative rather than absolute error — the metric the paper
// evaluates on — which also keeps the regression well conditioned when
// per-method counts are correlated across training queries. Tinst is fixed
// at 1/10^9 — a nominal nanosecond-scale instruction — so the fitted
// constants carry the machine-specific magnitudes.
func Calibrate(training []CompileObservation) (*TimeModel, error) {
	if len(training) < int(props.NumJoinMethods)+1 {
		return nil, errors.New("core: need more training queries than model constants")
	}
	const tinst = 1e-9
	x := make([][]float64, len(training))
	y := make([]float64, len(training))
	for i, tp := range training {
		actual := tp.Actual.Seconds() / tinst
		if actual <= 0 {
			actual = 1
		}
		row := make([]float64, props.NumJoinMethods+1)
		for t, p := range tp.Counts.ByMethod {
			row[t] = float64(p) / actual
		}
		row[props.NumJoinMethods] = 1 / actual // C0 regressor
		x[i] = row
		y[i] = 1
	}
	beta, err := stats.NonNegativeOLS(x, y)
	if err != nil {
		return nil, fmt.Errorf("core: calibration failed: %w", err)
	}
	m := &TimeModel{Tinst: tinst, C0: beta[props.NumJoinMethods]}
	copy(m.C[:], beta[:props.NumJoinMethods])

	// With per-method timing available, replace the free per-method fit by
	// a two-stage one: the Ct proportions come from the measured
	// generation-time shares, and a scale factor plus C0 are refit by the
	// same weighted regression. The free fit zeroes constants whenever the
	// per-method counts are nearly collinear across the training set.
	var perMethod [props.NumJoinMethods]float64
	var haveGen bool
	{
		var cnt [props.NumJoinMethods]float64
		for _, tp := range training {
			for t := range perMethod {
				perMethod[t] += tp.GenSeconds[t] / tinst
				cnt[t] += float64(tp.Counts.ByMethod[t])
			}
		}
		for t := range perMethod {
			if perMethod[t] > 0 && cnt[t] > 0 {
				perMethod[t] /= cnt[t]
				haveGen = true
			}
		}
	}
	if haveGen {
		x2 := make([][]float64, len(training))
		for i, tp := range training {
			actual := tp.Actual.Seconds() / tinst
			if actual <= 0 {
				actual = 1
			}
			base := 0.0
			for t, p := range tp.Counts.ByMethod {
				base += perMethod[t] * float64(p)
			}
			x2[i] = []float64{base / actual, 1 / actual}
		}
		beta2, err := stats.NonNegativeOLS(x2, y)
		if err != nil {
			return nil, fmt.Errorf("core: calibration failed: %w", err)
		}
		if beta2[0] > 0 {
			for t := range m.C {
				m.C[t] = beta2[0] * perMethod[t]
			}
			m.C0 = beta2[1]
		}
	}
	return m, nil
}
