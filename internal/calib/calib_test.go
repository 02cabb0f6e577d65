package calib

import (
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cote/internal/core"
	"cote/internal/props"
)

// counts builds a PlanCounts from per-method values.
func counts(mg, nl, hs int) core.PlanCounts {
	var p core.PlanCounts
	p.ByMethod[props.MGJN] = mg
	p.ByMethod[props.NLJN] = nl
	p.ByMethod[props.HSJN] = hs
	return p
}

// model builds a TimeModel from its constants.
func model(cm, cn, ch, c0 float64) *core.TimeModel {
	m := &core.TimeModel{Tinst: 1e-9, C0: c0}
	m.C[props.MGJN] = cm
	m.C[props.NLJN] = cn
	m.C[props.HSJN] = ch
	return m
}

// syntheticObs prices counts with the current model (when any) and
// synthesizes the measured time from the true model — the deterministic
// replay pattern the end-to-end test and the cotebench calib figure use.
func syntheticObs(trueModel *core.TimeModel, current *core.TimeModel, c core.PlanCounts) core.CompileObservation {
	o := core.CompileObservation{Counts: c, Actual: trueModel.Predict(c)}
	if current != nil {
		o.Predicted = current.Predict(c)
	}
	return o
}

// varied returns n linearly independent-ish count vectors, enough to keep
// the refit regression well conditioned.
func varied(n int) []core.PlanCounts {
	out := make([]core.PlanCounts, n)
	for i := range out {
		out[i] = counts(1000+i*137, 500+(i%5)*211, 200+(i%3)*97)
	}
	return out
}

func TestLogRingBuffer(t *testing.T) {
	l := NewLog(4)
	if l.Cap() != 4 || l.Len() != 0 {
		t.Fatalf("fresh log: len %d cap %d", l.Len(), l.Cap())
	}
	add := func(actual int) {
		l.Add(core.CompileObservation{Actual: time.Duration(actual)})
	}
	add(1)
	add(2)
	add(3)
	got := l.Snapshot()
	if len(got) != 3 || got[0].Actual != 1 || got[2].Actual != 3 {
		t.Fatalf("partial window snapshot: %v", got)
	}
	add(4)
	add(5) // evicts 1
	add(6) // evicts 2
	got = l.Snapshot()
	if len(got) != 4 {
		t.Fatalf("full window len %d, want 4", len(got))
	}
	for i, want := range []time.Duration{3, 4, 5, 6} {
		if got[i].Actual != want {
			t.Fatalf("snapshot[%d] = %v, want %v (oldest first)", i, got[i].Actual, want)
		}
	}
}

func TestDriftDetector(t *testing.T) {
	d := NewDriftDetector(8, 0.5, 4)
	// Huge errors below the sample floor must not fire.
	d.Observe(3)
	d.Observe(3)
	d.Observe(3)
	if d.Degraded() {
		t.Fatal("degraded below minSamples")
	}
	d.Observe(3)
	if !d.Degraded() {
		t.Fatalf("not degraded at mean 3.0 > 0.5 with %d samples", d.N())
	}
	// The window rolls: enough accurate predictions wash the spike out.
	for i := 0; i < 8; i++ {
		d.Observe(0.01)
	}
	if d.Degraded() {
		t.Fatalf("still degraded after window turned over (drift %v)", d.Drift())
	}
	if got := d.Drift(); got < 0.009 || got > 0.011 {
		t.Fatalf("drift %v, want ~0.01", got)
	}
}

func TestDriftDetectorIgnoresNonFinite(t *testing.T) {
	d := NewDriftDetector(4, 0.5, 2)
	d.Observe(math.NaN())
	d.Observe(math.Inf(1))
	d.Observe(math.Inf(-1))
	if d.N() != 0 || d.Drift() != 0 {
		t.Fatalf("non-finite errors entered the window: n=%d drift=%v", d.N(), d.Drift())
	}
	d.Observe(2)
	d.Observe(2)
	if !d.Degraded() {
		t.Fatal("finite errors after non-finite ones must still count")
	}
}

func TestRegistryVersioningAndRollback(t *testing.T) {
	r := NewRegistry(3)
	if r.CurrentModel() != nil || r.Version() != 0 {
		t.Fatal("empty registry must provide no model")
	}
	v1 := r.Install(model(5, 2, 4, 100), "seed", 0, 0)
	v2 := r.Install(model(6, 1, 2, 100), "calibrate", 12, 0.1)
	if v1.Version != 1 || v2.Version != 2 || r.Version() != 2 {
		t.Fatalf("versions %d,%d current %d", v1.Version, v2.Version, r.Version())
	}
	if r.CurrentModel() != v2.Model {
		t.Fatal("current model is not the last installed")
	}

	rb, err := r.Rollback(1)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Version != 3 {
		t.Fatalf("rollback produced v%d, want a NEW version 3", rb.Version)
	}
	if rb.Source != "rollback(v1)" {
		t.Fatalf("rollback source %q", rb.Source)
	}
	if *rb.Model != *v1.Model {
		t.Fatalf("rollback model %+v != v1 model %+v", rb.Model, v1.Model)
	}
	if rb.Model == v1.Model {
		t.Fatal("rollback must copy the model, not alias the retained snapshot")
	}

	// retain=3: installing a 4th version evicts v1; rolling back to it fails.
	r.Install(model(1, 1, 1, 1), "api", 0, 0)
	if _, ok := r.Get(1); ok {
		t.Fatal("v1 still retained past the retention bound")
	}
	if _, err := r.Rollback(1); err == nil {
		t.Fatal("rollback to an evicted version must error")
	}
	hist := r.History()
	if len(hist) != 3 || hist[0].Version != 2 || hist[2].Version != 4 {
		t.Fatalf("history %v", hist)
	}
}

func TestPersistenceRoundTripAndTinstRescale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	r := NewRegistry(0)
	r.Install(model(5, 2, 4, 1000), "seed", 0, 0)
	r.Install(model(6, 1, 2, 900), "recalibrate", 32, 0.07)
	if _, err := r.Rollback(1); err != nil {
		t.Fatal(err)
	}

	const savedHost = 2e-9
	if err := r.Save(path, savedHost); err != nil {
		t.Fatal(err)
	}

	// Same host speed: byte-equal models, same current version.
	same, err := Load(path, 0, savedHost)
	if err != nil {
		t.Fatal(err)
	}
	if same.Version() != 3 || *same.CurrentModel() != *r.CurrentModel() {
		t.Fatalf("round trip: v%d %+v", same.Version(), same.CurrentModel())
	}
	if len(same.History()) != 3 {
		t.Fatalf("history lost: %d versions", len(same.History()))
	}
	if v, ok := same.Get(2); !ok || v.Source != "recalibrate" || v.Samples != 32 || v.FitErr != 0.07 {
		t.Fatalf("provenance lost: %+v", v)
	}

	// A 2x slower host: every model's Tinst doubles, constants untouched.
	slower, err := Load(path, 0, 2*savedHost)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range slower.History() {
		orig, ok := r.Get(v.Version)
		if !ok {
			t.Fatalf("version %d missing from source registry", v.Version)
		}
		if got, want := v.Model.Tinst, 2*orig.Model.Tinst; got != want {
			t.Fatalf("v%d Tinst %v, want %v", v.Version, got, want)
		}
		if v.Model.C != orig.Model.C || v.Model.C0 != orig.Model.C0 {
			t.Fatalf("v%d constants changed by rescale", v.Version)
		}
	}
	// Predictions scale accordingly.
	c := counts(100, 100, 100)
	if got, want := slower.CurrentModel().Predict(c), 2*r.CurrentModel().Predict(c); got != want {
		t.Fatalf("rescaled prediction %v, want %v", got, want)
	}

	// A new version installed after load keeps numbering monotonic.
	if v := same.Install(model(1, 1, 1, 1), "api", 0, 0); v.Version != 4 {
		t.Fatalf("post-load install v%d, want 4", v.Version)
	}
}

// testdata/registry_compat.json was written by Registry.Save before the
// calibration records were folded into core.CompileObservation: two
// time-model versions, one that adds a memory model, and a rollback, saved
// with a host Tinst. Loading it must keep every version, its provenance and
// its predictions.
func TestLoadRegistryFileFromBeforeObservationFold(t *testing.T) {
	const path = "testdata/registry_compat.json"
	r, err := Load(path, 0, 2e-9) // the saving host's Tinst: no rescale
	if err != nil {
		t.Fatal(err)
	}
	c := counts(1000, 500, 200)
	want := []struct {
		source string
		time   time.Duration
		hasMem bool
	}{
		{"seed", 10800, false},
		{"recalibrate", 10400, false},
		{"file", 10400, true},
		{"rollback(v1)", 10800, true},
	}
	hist := r.History()
	if len(hist) != len(want) || r.Version() != 4 {
		t.Fatalf("loaded %d versions, current v%d; want 4, v4", len(hist), r.Version())
	}
	for i, w := range want {
		v := hist[i]
		if v.Version != i+1 || v.Source != w.source {
			t.Fatalf("version %d: v%d %q, want v%d %q", i, v.Version, v.Source, i+1, w.source)
		}
		if got := v.Model.Predict(c); got != w.time {
			t.Fatalf("v%d predicts %v, want %v", v.Version, got, w.time)
		}
		if (v.Mem != nil) != w.hasMem {
			t.Fatalf("v%d memory model %+v, want present=%v", v.Version, v.Mem, w.hasMem)
		}
		if w.hasMem {
			if got := v.Mem.Predict(100, 5000, 800); got != 514448 {
				t.Fatalf("v%d memory model predicts %d, want 514448", v.Version, got)
			}
		}
	}
	if v, _ := r.Get(2); v.Samples != 32 || v.FitErr != 0.07 {
		t.Fatalf("v2 provenance %+v", v)
	}
	if r.CurrentMemModel() != hist[3].Mem {
		t.Fatal("current memory model is not v4's")
	}
	// A host twice as slow doubles every time prediction.
	slower, err := Load(path, 0, 4e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got := slower.CurrentModel().Predict(c); got != 2*10800 {
		t.Fatalf("rescaled prediction %v, want %v", got, 2*10800)
	}
}

func TestLoadMissingFileIsEmptyRegistry(t *testing.T) {
	r, err := Load(filepath.Join(t.TempDir(), "nope.json"), 0, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if r.CurrentModel() != nil || r.Version() != 0 {
		t.Fatal("missing file must yield an empty registry")
	}
}

// A drifted model triggers an automatic refit that converges on the true
// model; the drift window resets so the fresh model starts clean.
func TestCalibratorAutoRecalibratesOnDrift(t *testing.T) {
	trueModel := model(5, 2, 4, 4000)
	seed := model(20, 8, 16, 16000) // 4x everything
	reg := NewRegistry(0)
	reg.Install(seed, "seed", 0, 0)
	cal := NewCalibrator(reg, Config{})

	for _, c := range varied(DefaultMinSamples) {
		cal.ObserveCompile(syntheticObs(trueModel, reg.CurrentModel(), c))
	}
	st := cal.Stats()
	if st.Recalibrations != 1 {
		t.Fatalf("recalibrations %d, want 1 (drift %v, degraded %v)", st.Recalibrations, st.Drift, st.Degraded)
	}
	if reg.Version() != 2 {
		t.Fatalf("version %d, want 2", reg.Version())
	}
	if src := reg.Current().Source; src != "recalibrate" {
		t.Fatalf("source %q", src)
	}
	if st.Drift != 0 {
		t.Fatalf("drift window not reset after install: %v", st.Drift)
	}
	// The refit must predict the held-out point far better than the seed.
	held := counts(5000, 2500, 1200)
	want := trueModel.Predict(held)
	if got := reg.CurrentModel().Predict(held); relDiff(got, want) > 0.05 {
		t.Fatalf("refit predicts %v for true %v", got, want)
	}
	// And the old version remains retrievable.
	if v, ok := reg.Get(1); !ok || *v.Model != *seed {
		t.Fatal("seed version lost after recalibration")
	}
}

// An accurate incumbent must not be churned by a refit that is no better:
// the hysteresis gate rejects the candidate.
func TestCalibratorHysteresisRejectsSideways(t *testing.T) {
	trueModel := model(5, 2, 4, 4000)
	reg := NewRegistry(0)
	reg.Install(model(20, 8, 16, 16000), "seed", 0, 0)    // 4x everything
	cal := NewCalibrator(reg, Config{DriftThreshold: -1}) // manual refits only

	// Noisy observations (alternating ±15%) so window error is nonzero.
	for i, c := range varied(2 * DefaultMinSamples) {
		o := syntheticObs(trueModel, nil, c)
		if i%2 == 0 {
			o.Actual = o.Actual * 115 / 100
		} else {
			o.Actual = o.Actual * 85 / 100
		}
		cal.ObserveCompile(o)
	}
	if _, err := cal.Recalibrate("recalibrate"); err != nil {
		t.Fatalf("first refit of the mis-scaled seed: %v", err)
	}
	// Same window, same data: the candidate cannot beat the incumbent by
	// the hysteresis factor.
	if _, err := cal.Recalibrate("recalibrate"); !errors.Is(err, ErrNoImprovement) {
		t.Fatalf("sideways refit: %v, want ErrNoImprovement", err)
	}
	st := cal.Stats()
	if st.Recalibrations != 1 || st.Rejected != 1 {
		t.Fatalf("recalibrations %d rejected %d, want 1/1", st.Recalibrations, st.Rejected)
	}
	if reg.Version() != 2 {
		t.Fatalf("version churned to %d", reg.Version())
	}
}

// Automatic refit attempts are spaced MinSamples observations apart. The
// fixture keeps the window degraded (every prediction 4x the truth) while
// the incumbent is the true model, so each attempt is a hysteresis
// rejection against ±15% noisy actuals and the rejection count records
// exactly when attempts ran.
func TestCalibratorCooldownSpacesAttempts(t *testing.T) {
	const minSamples = 5
	trueModel := model(5, 2, 4, 4000)
	reg := NewRegistry(0)
	reg.Install(trueModel, "seed", 0, 0)
	cal := NewCalibrator(reg, Config{MinSamples: minSamples})

	var attempts []int
	for i, c := range varied(40) {
		o := syntheticObs(trueModel, nil, c)
		o.Predicted = 4 * o.Actual
		if i%2 == 0 {
			o.Actual = o.Actual * 115 / 100
		} else {
			o.Actual = o.Actual * 85 / 100
		}
		before := cal.Stats()
		cal.ObserveCompile(o)
		after := cal.Stats()
		if after.Recalibrations != 0 || after.Failures != 0 {
			t.Fatalf("observation %d: refit installed or failed (%+v); the fixture lost its point", i+1, after)
		}
		if after.Rejected != before.Rejected {
			attempts = append(attempts, i+1)
		}
	}
	// The first attempt waits for the drift window to fill; every later one
	// comes exactly MinSamples observations after the previous.
	if len(attempts) < 2 || attempts[0] != DefaultDriftMinSamples {
		t.Fatalf("attempts after observations %v, want the first at %d", attempts, DefaultDriftMinSamples)
	}
	for k := 1; k < len(attempts); k++ {
		if gap := attempts[k] - attempts[k-1]; gap != minSamples {
			t.Fatalf("attempts after observations %v: gap %d, want %d", attempts, gap, minSamples)
		}
	}
}

// The service feeds the calibrator from every compile while /metrics and
// /v1/model read it and /v1/model recalibrates: eight feeders race readers
// and explicit refits (run under -race).
func TestCalibratorConcurrentObserveAndRead(t *testing.T) {
	trueModel := model(5, 2, 4, 4000)
	reg := NewRegistry(0)
	reg.Install(model(20, 8, 16, 16000), "seed", 0, 0)
	cal := NewCalibrator(reg, Config{MinSamples: 5})
	cs := varied(64)

	var feeders, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		feeders.Add(1)
		go func(g int) {
			defer feeders.Done()
			for i := 0; i < 200; i++ {
				cal.ObserveCompile(syntheticObs(trueModel, reg.CurrentModel(), cs[(g*200+i)%len(cs)]))
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch g {
				case 0:
					_ = cal.Stats()
				case 1:
					if m := reg.CurrentModel(); m == nil {
						t.Error("registry lost its model")
						return
					}
				case 2:
					_, _ = cal.Recalibrate("recalibrate(api)")
				}
			}
		}(g)
	}
	feeders.Wait()
	close(stop)
	readers.Wait()

	st := cal.Stats()
	if st.Observations != 8*200 || st.WindowLen != DefaultLogCapacity {
		t.Fatalf("observations %d window %d, want %d and %d", st.Observations, st.WindowLen, 8*200, DefaultLogCapacity)
	}
	if st.Recalibrations < 1 || int64(reg.Version()) != 1+st.Recalibrations {
		t.Fatalf("recalibrations %d, registry at v%d", st.Recalibrations, reg.Version())
	}
}

func TestCalibratorNotEnoughSamples(t *testing.T) {
	cal := NewCalibrator(NewRegistry(0), Config{})
	cal.ObserveCompile(core.CompileObservation{Counts: counts(10, 10, 10), Actual: time.Millisecond})
	if _, err := cal.Recalibrate("recalibrate"); !errors.Is(err, ErrNotEnoughSamples) {
		t.Fatalf("thin window: %v, want ErrNotEnoughSamples", err)
	}
}

// Observations with nothing measured must be dropped, not logged.
func TestCalibratorDropsNonPositiveActual(t *testing.T) {
	cal := NewCalibrator(NewRegistry(0), Config{})
	cal.ObserveCompile(core.CompileObservation{Counts: counts(10, 10, 10)})
	cal.ObserveCompile(core.CompileObservation{Counts: counts(10, 10, 10), Actual: -time.Second})
	if st := cal.Stats(); st.Observations != 0 || st.WindowLen != 0 {
		t.Fatalf("unmeasured observations were logged: %+v", st)
	}
}

func relDiff(a, b time.Duration) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return 0
	}
	return float64(d) / float64(b)
}
