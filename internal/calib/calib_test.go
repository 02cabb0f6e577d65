package calib

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
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
	var l Log
	if l.Cap() != LogCapacity || l.Len() != 0 {
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
	for i := 4; i <= LogCapacity+2; i++ {
		add(i) // the last two evict 1 and 2
	}
	got = l.Snapshot()
	if len(got) != LogCapacity {
		t.Fatalf("full window len %d, want %d", len(got), LogCapacity)
	}
	for i := range got {
		if want := time.Duration(i + 3); got[i].Actual != want {
			t.Fatalf("snapshot[%d] = %v, want %v (oldest first)", i, got[i].Actual, want)
		}
	}
}

func TestDriftDetector(t *testing.T) {
	var d DriftDetector
	// Huge errors below the sample floor must not fire.
	for i := 0; i < DriftMinSamples-1; i++ {
		d.Observe(3)
	}
	if d.Degraded() {
		t.Fatal("degraded below DriftMinSamples")
	}
	d.Observe(3)
	if !d.Degraded() {
		t.Fatalf("not degraded at mean 3.0 > %v with %d samples", DriftThreshold, d.n())
	}
	// The window rolls: enough accurate predictions wash the spike out.
	for i := 0; i < DriftWindow; i++ {
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
	var d DriftDetector
	d.Observe(math.NaN())
	d.Observe(math.Inf(1))
	d.Observe(math.Inf(-1))
	if d.n() != 0 || d.Drift() != 0 {
		t.Fatalf("non-finite errors entered the window: n=%d drift=%v", d.n(), d.Drift())
	}
	for i := 0; i < DriftMinSamples; i++ {
		d.Observe(2)
	}
	if !d.Degraded() {
		t.Fatal("finite errors after non-finite ones must still count")
	}
}

func TestRegistryVersioningAndRollback(t *testing.T) {
	r := NewRegistry()
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

	// Installing version Retain+1 evicts v1; rolling back to it fails.
	for r.Version() < Retain+1 {
		r.Install(model(1, 1, 1, 1), "api", 0, 0)
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("v1 still retained past the retention bound")
	}
	if _, err := r.Rollback(1); err == nil {
		t.Fatal("rollback to an evicted version must error")
	}
	hist := r.History()
	if len(hist) != Retain || hist[0].Version != 2 || hist[Retain-1].Version != Retain+1 {
		t.Fatalf("history %v", hist)
	}
}

// A saved registry loads back with every version, its provenance and its
// models as saved; a file carrying an older writer's host_tinst loads with
// every Tinst as saved too.
func TestPersistenceRoundTripKeepsTinst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	r := NewRegistry()
	r.Install(model(5, 2, 4, 1000), "seed", 0, 0)
	r.Install(model(6, 1, 2, 900), "recalibrate", 32, 0.07)
	if _, err := r.Rollback(1); err != nil {
		t.Fatal(err)
	}

	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}

	// Byte-equal models, same current version.
	same, err := Load(path)
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

	// The same file with the host_tinst key older writers recorded: every
	// model loads as saved, constants and Tinst alike.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	older := filepath.Join(t.TempDir(), "older.json")
	if err := os.WriteFile(older, append([]byte(`{"host_tinst": 2e-9,`), data[1:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	withHost, err := Load(older)
	if err != nil {
		t.Fatal(err)
	}
	if len(withHost.History()) != 3 || withHost.Version() != 3 {
		t.Fatalf("host_tinst file: %d versions, current v%d; want 3, v3", len(withHost.History()), withHost.Version())
	}
	for _, v := range withHost.History() {
		orig, ok := r.Get(v.Version)
		if !ok {
			t.Fatalf("version %d missing from source registry", v.Version)
		}
		if *v.Model != *orig.Model {
			t.Fatalf("v%d loaded %+v, saved %+v", v.Version, *v.Model, *orig.Model)
		}
	}
	c := counts(100, 100, 100)
	if got, want := withHost.CurrentModel().Predict(c), r.CurrentModel().Predict(c); got != want {
		t.Fatalf("host_tinst file predicts %v, want %v", got, want)
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
// its predictions; the host Tinst is skipped.
func TestLoadRegistryFileFromBeforeObservationFold(t *testing.T) {
	const path = "testdata/registry_compat.json"
	r, err := Load(path)
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
	// The file records host_tinst 2e-9; every model keeps the Tinst it
	// was saved with.
	for _, v := range hist {
		if v.Model.Tinst != 1e-9 {
			t.Fatalf("v%d Tinst %v, want the saved 1e-9", v.Version, v.Model.Tinst)
		}
	}
}

// Every version has a time model the model endpoints can price with:
// testdata/registry_mem_only.json's v2 carries only a memory model (GET
// /v1/model/history would read the ratio of its nil time model), and a
// time model with Tinst <= 0 or a negative constant predicts nothing
// sensible. Load refuses each, naming the version; InstallMem refuses to
// create a version without a time model.
func TestLoadRefusesVersionsWithoutAValidTimeModel(t *testing.T) {
	if _, err := Load("testdata/registry_mem_only.json"); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("memory-only version: err %v, want a refusal naming version 2", err)
	}
	for _, tc := range []struct {
		name, model, field string
	}{
		{"zero tinst", `{"tinst": 0, "c_mgjn": 5, "c_nljn": 2, "c_hsjn": 4, "c0": 1}`, "tinst"},
		{"negative tinst", `{"tinst": -1e-9, "c_mgjn": 5, "c_nljn": 2, "c_hsjn": 4, "c0": 1}`, "tinst"},
		{"negative Ct", `{"tinst": 1e-9, "c_mgjn": 5, "c_nljn": -2, "c_hsjn": 4, "c0": 1}`, "c_nljn"},
		{"negative C0", `{"tinst": 1e-9, "c_mgjn": 5, "c_nljn": 2, "c_hsjn": 4, "c0": -1}`, "c0"},
	} {
		path := filepath.Join(t.TempDir(), "model.json")
		file := `{"current": 7, "versions": [{"version": 7, "source": "api", "model": ` + tc.model + `}]}`
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil || !strings.Contains(err.Error(), "version 7") || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err %v, want a refusal naming version 7 and %s", tc.name, err, tc.field)
		}
	}
	// A file saved with a host Tinst that underflowed the old per-host
	// rescale to an infinite Tinst loads with its model as saved.
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, underflowHostFile, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := Load(path); err != nil || r.CurrentModel().Tinst != 1e-9 {
		t.Fatalf("file with host_tinst 5e-324: %v, want a load at Tinst 1e-9", err)
	}

	r := NewRegistry()
	if v, err := r.InstallMem(&core.MemModel{Base: 1}, "test", 0); err == nil || v != nil || r.Version() != 0 {
		t.Fatalf("InstallMem into an empty registry: v%d, %v, %v; want no version and an error", r.Version(), v, err)
	}
	r.Install(model(5, 2, 4, 100), "seed", 0, 0)
	v, err := r.InstallMem(&core.MemModel{Base: 1}, "test", 0)
	if err != nil || v.Model != r.History()[0].Model || v.Mem.Base != 1 {
		t.Fatalf("InstallMem over a time model: %+v, %v", v, err)
	}
}

// underflowHostFile records a host Tinst so small that the old per-host
// rescale divided by it into an infinite Tinst.
var underflowHostFile = []byte(`{"host_tinst": 5e-324, "current": 1, "versions": [{"version": 1, "source": "api", "model": {"tinst": 1e-9, "c_mgjn": 5, "c_nljn": 2, "c_hsjn": 4, "c0": 1}}]}`)

func TestLoadMissingFileIsEmptyRegistry(t *testing.T) {
	r, err := Load(filepath.Join(t.TempDir(), "nope.json"))
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
	reg := NewRegistry()
	reg.Install(seed, "seed", 0, 0)
	cal := NewCalibrator(reg, nil)

	for _, c := range varied(MinSamples) {
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
	reg := NewRegistry()
	reg.Install(model(20, 8, 16, 16000), "seed", 0, 0) // 4x everything
	cal := NewCalibrator(reg, nil)

	// Noisy observations (alternating ±15%) so window error is nonzero,
	// recorded without the automatic refit: both refits are explicit.
	for i, c := range varied(2 * MinSamples) {
		o := syntheticObs(trueModel, nil, c)
		if i%2 == 0 {
			o.Actual = o.Actual * 115 / 100
		} else {
			o.Actual = o.Actual * 85 / 100
		}
		cal.record(o)
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
	trueModel := model(5, 2, 4, 4000)
	reg := NewRegistry()
	reg.Install(trueModel, "seed", 0, 0)
	cal := NewCalibrator(reg, nil)

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
	if len(attempts) < 2 || attempts[0] != DriftMinSamples {
		t.Fatalf("attempts after observations %v, want the first at %d", attempts, DriftMinSamples)
	}
	for k := 1; k < len(attempts); k++ {
		if gap := attempts[k] - attempts[k-1]; gap != MinSamples {
			t.Fatalf("attempts after observations %v: gap %d, want %d", attempts, gap, MinSamples)
		}
	}
}

// The service feeds the calibrator from every compile while /metrics and
// /v1/model read it and /v1/model recalibrates: eight feeders race readers
// and explicit refits (run under -race).
func TestCalibratorConcurrentObserveAndRead(t *testing.T) {
	trueModel := model(5, 2, 4, 4000)
	reg := NewRegistry()
	reg.Install(model(20, 8, 16, 16000), "seed", 0, 0)
	cal := NewCalibrator(reg, nil)
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
	if st.Observations != 8*200 || st.WindowLen != LogCapacity {
		t.Fatalf("observations %d window %d, want %d and %d", st.Observations, st.WindowLen, 8*200, LogCapacity)
	}
	if st.Recalibrations < 1 || int64(reg.Version()) != 1+st.Recalibrations {
		t.Fatalf("recalibrations %d, registry at v%d", st.Recalibrations, reg.Version())
	}
}

func TestCalibratorNotEnoughSamples(t *testing.T) {
	cal := NewCalibrator(NewRegistry(), nil)
	cal.ObserveCompile(core.CompileObservation{Counts: counts(10, 10, 10), Actual: time.Millisecond})
	if _, err := cal.Recalibrate("recalibrate"); !errors.Is(err, ErrNotEnoughSamples) {
		t.Fatalf("thin window: %v, want ErrNotEnoughSamples", err)
	}
}

// Observations with nothing measured must be dropped, not logged.
func TestCalibratorDropsNonPositiveActual(t *testing.T) {
	cal := NewCalibrator(NewRegistry(), nil)
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
