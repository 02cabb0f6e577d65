package core

import (
	"testing"

	"cote/internal/opt"
)

type obsRecorder struct{ obs []CompileObservation }

func (r *obsRecorder) ObserveCompile(o CompileObservation) { r.obs = append(r.obs, o) }

type staticProvider struct {
	m   *TimeModel
	mem *MemModel
}

func (p staticProvider) CurrentModel() *TimeModel   { return p.m }
func (p staticProvider) CurrentMemModel() *MemModel { return p.mem }

// MOP must emit one observation per real compilation it runs: the low-level
// compile (no prediction to score) and the high-level recompile (paired
// with the estimate that justified it, whose structural counts it carries).
func TestMOPObserverReceivesBothCompiles(t *testing.T) {
	rec := &obsRecorder{}
	m := &MOP{Model: mopFastModel(), Observer: rec}
	_, dec, err := m.Run(starBlock(t, 6, 2, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Recompiled {
		t.Fatalf("fixture did not recompile: %+v", dec)
	}
	if len(rec.obs) != 2 {
		t.Fatalf("%d observations, want 2 (low compile + recompile)", len(rec.obs))
	}
	low, high := rec.obs[0], rec.obs[1]
	if low.Level != opt.LevelLow || low.Predicted != 0 {
		t.Fatalf("low observation: %+v", low)
	}
	if high.Level != opt.LevelHighInner2 {
		t.Fatalf("high observation at %v", high.Level)
	}
	if high.Predicted != dec.HighCompileEstimate {
		t.Fatalf("high observation predicted %v, decision says %v", high.Predicted, dec.HighCompileEstimate)
	}
	if high.Actual <= 0 || high.Counts.Total() <= 0 {
		t.Fatalf("high observation unmeasured: %+v", high)
	}
	if low.Fingerprint != high.Fingerprint || low.Fingerprint == (CompileObservation{}).Fingerprint {
		t.Fatalf("fingerprints %v vs %v", low.Fingerprint, high.Fingerprint)
	}
	est, err := EstimatePlans(starBlock(t, 6, 2, 1, 0, 1), Options{Level: opt.LevelHighInner2})
	if err != nil {
		t.Fatal(err)
	}
	entries, propBytes := 0, 0
	for _, be := range est.Blocks {
		entries += be.Entries
		propBytes += be.PropertyBytes
	}
	if high.Entries != entries || high.PropertyBytes != propBytes || high.EstimatedPlans != est.Counts.Total() || high.Pairs != est.Pairs {
		t.Fatalf("high observation regressors entries=%d prop=%d plans=%d pairs=%d, estimate has %d/%d/%d/%d",
			high.Entries, high.PropertyBytes, high.EstimatedPlans, high.Pairs, entries, propBytes, est.Counts.Total(), est.Pairs)
	}
	if high.Entries <= 0 || high.PeakBytes != dec.FinalPeakBytes || high.PeakBytes <= 0 {
		t.Fatalf("high observation peak %d entries %d, decision final peak %d", high.PeakBytes, high.Entries, dec.FinalPeakBytes)
	}
	if low.Entries != 0 || low.EstimatedPlans != 0 {
		t.Fatalf("low observation carries an estimate it never had: %+v", low)
	}
}

// With no explicit Model, MOP must consult the provider — the hook that
// lets a registry swap models between runs — for both the time and the
// memory model; an explicit Model still wins over the provider's.
func TestModelProviderFallback(t *testing.T) {
	model := &TimeModel{Tinst: 1e-9, C: [3]float64{5, 2, 4}, C0: 100}
	mem := &MemModel{Base: 1}
	m := &MOP{Models: staticProvider{model, mem}}
	_, dec, err := m.Run(starBlock(t, 6, 2, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if dec.HighCompileEstimate <= 0 {
		t.Fatalf("provider model unused: %+v", dec)
	}
	if dec.HighPredictedPeakBytes != 1 {
		t.Fatalf("provider memory model unused: predicted peak %d, want 1", dec.HighPredictedPeakBytes)
	}

	bigger := &TimeModel{Tinst: 2 * model.Tinst, C: model.C, C0: model.C0}
	m2 := &MOP{Model: bigger, Models: staticProvider{model, nil}}
	_, dec2, err := m2.Run(starBlock(t, 6, 2, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if dec2.HighCompileEstimate != 2*dec.HighCompileEstimate {
		t.Fatalf("explicit model did not win: %v vs %v", dec2.HighCompileEstimate, dec.HighCompileEstimate)
	}
	if dec2.HighPredictedPeakBytes <= 1 {
		t.Fatalf("nil provider memory model did not fall back to the default: %d", dec2.HighPredictedPeakBytes)
	}
}
