package service

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cote/internal/calib"
	"cote/internal/core"
	"cote/internal/faultinject"
	"cote/internal/props"
)

// A cached estimate must be re-priced with the model that is current at
// response time, not the one that was current when the entry was filled:
// the cache stores counts (model-independent), predictions are derived.
func TestEstimateCacheRepricedOnModelSwap(t *testing.T) {
	srv := New(Config{Workers: 2, CacheCapacity: 16, Models: seeded(testModel(1e-6))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	est := func() map[string]any {
		resp, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Catalog: "tpch", SQL: tpchQ3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: %d %v", resp.StatusCode, body)
		}
		return body
	}

	// Miss under model v1.
	body := est()
	if body["cached"].(bool) {
		t.Fatal("first estimate claims cached")
	}
	if v := body["model_version"].(float64); v != 1 {
		t.Fatalf("model_version = %v, want 1", v)
	}
	base := body["estimate"].(map[string]any)["predicted_time_ns"].(float64)
	if base <= 0 {
		t.Fatalf("no prediction under the seed model: %v", body)
	}

	// Install a 10x model through the API; the version advances.
	resp, mBody := postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Model: testModel(1e-5)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model install: %d %v", resp.StatusCode, mBody)
	}
	if v := mBody["version"].(float64); v != 2 {
		t.Fatalf("installed version = %v, want 2", v)
	}

	// Hit: same counts from the cache, but priced with the new model.
	body = est()
	if !body["cached"].(bool) {
		t.Fatal("second estimate missed the cache")
	}
	if v := body["model_version"].(float64); v != 2 {
		t.Fatalf("cached response model_version = %v, want 2", v)
	}
	swapped := body["estimate"].(map[string]any)["predicted_time_ns"].(float64)
	if got, want := swapped/base, 10.0; got < want*0.99 || got > want*1.01 {
		t.Fatalf("cached prediction not re-priced: %v / %v = %v, want ~10x", swapped, base, got)
	}

	// Rolling back re-prices again — to the old numbers, under a NEW version.
	resp, mBody = postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Rollback: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: %d %v", resp.StatusCode, mBody)
	}
	if v := mBody["version"].(float64); v != 3 {
		t.Fatalf("rollback version = %v, want 3", v)
	}
	body = est()
	if !body["cached"].(bool) {
		t.Fatal("post-rollback estimate missed the cache")
	}
	back := body["estimate"].(map[string]any)["predicted_time_ns"].(float64)
	if got := back / base; got < 0.99 || got > 1.01 {
		t.Fatalf("rollback did not restore pricing: %v vs %v", back, base)
	}
	if v := body["model_version"].(float64); v != 3 {
		t.Fatalf("post-rollback model_version = %v, want 3", v)
	}
}

// Every real optimization the server runs must land in the calibration
// loop: observation counters move and the drift gauge starts reporting.
func TestOptimizeFeedsCalibrator(t *testing.T) {
	srv := New(Config{Workers: 2, Models: seeded(testModel(1e-6))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Catalog: "tpch", SQL: tpchQ3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d %v", resp.StatusCode, body)
	}

	_, m := getJSON(t, ts.URL+"/metrics")
	cs := m["calibration"].(map[string]any)
	if cs["observations"].(float64) < 1 {
		t.Fatalf("optimize did not feed the calibrator: %v", cs)
	}
	if cs["window_len"].(float64) < 1 {
		t.Fatalf("observation window empty: %v", cs)
	}
	if cs["model_version"].(float64) != 1 {
		t.Fatalf("model_version = %v, want 1", cs["model_version"])
	}
	st := srv.Calibrator().Stats()
	if st.Observations < 1 {
		t.Fatalf("calibrator stats empty: %+v", st)
	}
}

// The model API's inspection surface: 404 before any model, status and
// history afterwards, and validation of the one-of update contract.
func TestModelEndpoints(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := getJSON(t, ts.URL+"/v1/model")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/model with no model: %d, want 404", resp.StatusCode)
	}

	// Exactly one of model/rollback/recalibrate must be set.
	resp, _ = postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty update: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Model: testModel(1e-6), Rollback: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("two-field update: %d, want 400", resp.StatusCode)
	}

	// An upload passes the check a model file does: Tinst > 0 and every
	// constant >= 0.
	for _, bad := range []func(m *core.TimeModel){
		func(m *core.TimeModel) { m.Tinst = 0 },
		func(m *core.TimeModel) { m.C[props.NLJN] = -1 },
		func(m *core.TimeModel) { m.C0 = -1 },
	} {
		m := testModel(1e-6)
		bad(m)
		if resp, body := postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Model: m}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid model %+v: %d %v, want 400", *m, resp.StatusCode, body)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Model: testModel(1e-6)})
	if resp.StatusCode != http.StatusOK || body["version"].(float64) != 1 {
		t.Fatalf("install: %d %v", resp.StatusCode, body)
	}
	resp, body = getJSON(t, ts.URL+"/v1/model")
	if resp.StatusCode != http.StatusOK || body["source"] != "api" || body["current"] != true {
		t.Fatalf("GET /v1/model: %d %v", resp.StatusCode, body)
	}

	_, body = getJSON(t, ts.URL+"/v1/model/history")
	if body["current"].(float64) != 1 || len(body["versions"].([]any)) != 1 {
		t.Fatalf("history: %v", body)
	}

	// Rolling back to an unretained version is a 400, not a crash.
	resp, _ = postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Rollback: 99})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rollback to missing version: %d, want 400", resp.StatusCode)
	}
}

// Every way POST /v1/model makes a version current — install, rollback and
// recalibrate — must publish it once: one Config.Calib call with the new
// current version (what -model-file persistence hangs off) and one
// model_installs tick.
func TestModelUpdatesPublishOnce(t *testing.T) {
	var mu sync.Mutex
	var swapped []int
	srv := New(Config{Workers: 1, Calib: func(v *calib.ModelVersion) {
		mu.Lock()
		swapped = append(swapped, v.Version)
		mu.Unlock()
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The window a recalibration refits over: plan counts timed by a model
	// far enough from testModel that the refit beats the incumbent. With no
	// model installed they price nothing, so no automatic refit runs, and
	// no observation follows the first install: the one refit is the
	// requested one.
	truth := &core.TimeModel{Tinst: 1}
	truth.C[props.MGJN], truth.C[props.NLJN], truth.C[props.HSJN] = 5e-6, 2e-6, 4e-6
	for i := 1; i <= 12; i++ {
		var c core.PlanCounts
		c.ByMethod[props.MGJN], c.ByMethod[props.NLJN], c.ByMethod[props.HSJN] = 10*i, 100+7*i*i, 3*i+i%4
		srv.Calibrator().ObserveCompile(core.CompileObservation{Counts: c, Actual: truth.Predict(c)})
	}

	installs := func() float64 {
		_, m := getJSON(t, ts.URL+"/metrics")
		return m["calibration"].(map[string]any)["model_installs"].(float64)
	}
	for i, step := range []struct {
		name string
		req  ModelUpdateRequest
	}{
		{"install", ModelUpdateRequest{Model: testModel(1e-6)}},
		{"install", ModelUpdateRequest{Model: testModel(1e-5)}},
		{"rollback", ModelUpdateRequest{Rollback: 1}},
		{"recalibrate", ModelUpdateRequest{Recalibrate: true}},
	} {
		before := installs()
		resp, body := postJSON(t, ts.URL+"/v1/model", step.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %v", step.name, resp.StatusCode, body)
		}
		want := i + 1
		if v := int(body["version"].(float64)); v != want || srv.Models().Version() != want {
			t.Fatalf("%s: current version %d (registry %d), want %d", step.name, v, srv.Models().Version(), want)
		}
		mu.Lock()
		got := append([]int(nil), swapped...)
		mu.Unlock()
		if len(got) != want || got[want-1] != want {
			t.Fatalf("%s: the swap hook saw versions %v, want one call per update ending in %d", step.name, got, want)
		}
		if after := installs(); after != before+1 {
			t.Fatalf("%s: model_installs %v -> %v, want one more", step.name, before, after)
		}
	}
}

// A rollback trips the same model.swap point as an install: a faulted
// rollback answers 503 dependency_fault and leaves the current version as
// it was; once the plan is gone the same rollback succeeds.
func TestChaosModelSwapOnRollback(t *testing.T) {
	srv := New(Config{Workers: 2, Models: seeded(testModel(1e-6))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Model: testModel(1e-5)})
	if resp.StatusCode != http.StatusOK || body["version"].(float64) != 2 {
		t.Fatalf("install: %d %v", resp.StatusCode, body)
	}
	current := srv.Model()

	plan, err := faultinject.NewPlan(3, faultinject.Rule{Point: faultinject.PointModelSwap, Error: true})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(plan)
	defer faultinject.Deactivate()

	resp, body = postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Rollback: 1})
	if resp.StatusCode != http.StatusServiceUnavailable || body["code"] != CodeDependencyFault {
		t.Fatalf("faulted rollback: %d %v, want 503 %s", resp.StatusCode, body, CodeDependencyFault)
	}
	if v := srv.models.Version(); v != 2 || srv.Model() != current {
		t.Fatalf("faulted rollback moved the model: current v%d", v)
	}
	if st := faultinject.Stats()[faultinject.PointModelSwap]; st.Trips != 1 {
		t.Fatalf("model.swap stats %+v, want one trip", st)
	}

	faultinject.Deactivate()
	resp, body = postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Rollback: 1})
	if resp.StatusCode != http.StatusOK || body["version"].(float64) != 3 {
		t.Fatalf("rollback after Deactivate: %d %v, want 200 v3", resp.StatusCode, body)
	}
}
