package core

import (
	"fmt"

	"cote/internal/memo"
	"cote/internal/stats"
)

// MemModel converts an estimate's structural counts — MEMO entries, generated
// plans, property-list bytes — into a predicted peak optimizer memory, the
// Section 6.2 extension upgraded from a lower bound to a calibrated model.
// It is the memory-side sibling of TimeModel: the same regressors the time
// model already pays for, fitted by the same non-negative least squares,
// versioned by the same registry, and fitted from the same observation
// record (measured durable high-water marks instead of measured wall times).
type MemModel struct {
	// PerEntry is bytes per MEMO entry the real compile retains.
	PerEntry float64 `json:"per_entry"`
	// PerPlan is bytes per generated join plan. Generated — not retained —
	// because generation is what the estimator counts; pruning's effect on
	// the retained set is exactly what calibration folds into the
	// coefficient.
	PerPlan float64 `json:"per_plan"`
	// PerPropByte scales the estimator's property-list byte count.
	PerPropByte float64 `json:"per_prop_byte"`
	// Base is the constant term (fixed per-block overheads).
	Base float64 `json:"base"`
}

// DefaultMemModel returns the uncalibrated structural model: the MEMO's
// own per-structure footprints, no constant term. It over-predicts real
// compiles (pruning releases plans; generated >= retained), which is the safe
// direction for admission until a calibration pass tightens it.
func DefaultMemModel() *MemModel {
	m := *defaultMemModel
	return &m
}

// defaultMemModel is the structural default the estimate path prices with
// when nothing else supplies a model. Read only: callers that may modify a
// model get their own copy from DefaultMemModel.
var defaultMemModel = &MemModel{
	PerEntry:    float64(memo.EntryFootprint),
	PerPlan:     float64(memo.PlanFootprint),
	PerPropByte: 1,
}

// Predict converts structural counts to predicted peak bytes. A nil model
// is the structural default.
func (m *MemModel) Predict(entries, plans, propBytes int) int64 {
	if m == nil {
		m = defaultMemModel
	}
	v := m.PerEntry*float64(entries) + m.PerPlan*float64(plans) +
		m.PerPropByte*float64(propBytes) + m.Base
	if v < 0 {
		return 0
	}
	return int64(v)
}

// EstimateMemory predicts the peak durable optimizer memory of the real
// compilation an estimate describes: the model applied to the estimate's
// total entries, generated-plan counts and property bytes. DC plans (one per
// entry) ride on the entry coefficient.
func EstimateMemory(est *Estimate, m *MemModel) int64 {
	entries, propBytes := 0, 0
	for _, be := range est.Blocks {
		entries += be.Entries
		propBytes += be.PropertyBytes
	}
	return m.Predict(entries, est.Counts.Total(), propBytes)
}

// CalibrateMemory fits the memory model from observations (PeakBytes on the
// estimate's Entries, EstimatedPlans and PropertyBytes) by non-negative
// least squares — the same solver Calibrate uses for the time model, so a
// badly conditioned workload degrades to zeroed coefficients rather than
// negative memory. At least one point per free coefficient is required.
//
// Each row is normalized by its measured peak, so the solver minimizes
// relative error rather than absolute: a 2x miss on a 4 KB query weighs as
// much as one on a 2 MB query. An absolute-error fit lets the intercept
// drift to whatever suits the largest workloads (a few KB of Base is free
// against megabyte-scale points) and then over-predicts small queries by
// multiples — exactly the regime where admission decisions are made.
func CalibrateMemory(points []CompileObservation) (*MemModel, error) {
	x := make([][]float64, 0, len(points))
	y := make([]float64, 0, len(points))
	for _, p := range points {
		peak := float64(p.PeakBytes)
		if peak <= 0 {
			continue // unmeasured compile: nothing to normalize against
		}
		w := 1 / peak
		x = append(x, []float64{float64(p.Entries) * w, float64(p.EstimatedPlans) * w, float64(p.PropertyBytes) * w, w})
		y = append(y, 1)
	}
	if len(x) < 4 {
		return nil, fmt.Errorf("core: memory calibration needs >= 4 measured points, got %d", len(x))
	}
	coef, err := stats.NonNegativeOLS(x, y)
	if err != nil {
		return nil, fmt.Errorf("core: memory calibration: %w", err)
	}
	return &MemModel{PerEntry: coef[0], PerPlan: coef[1], PerPropByte: coef[2], Base: coef[3]}, nil
}
