package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cote/internal/calib"
	"cote/internal/core"
	"cote/internal/props"
	"cote/internal/testutil"
)

// Three structurally distinct TPC-H queries (different table sets, so
// different signatures).
const (
	tpchQ3 = `SELECT c_name FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey`
	tpchQ4 = `SELECT c_name FROM customer, orders, lineitem, supplier
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey`
	tpchQ6 = `SELECT n_name FROM customer, orders, lineitem, supplier, nation, region
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
		  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
		  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		ORDER BY n_name`
)

// testModel returns a model predicting perPlan seconds per generated plan,
// so tests can steer predictions far above or below any budget.
func testModel(perPlan float64) *core.TimeModel {
	m := &core.TimeModel{Tinst: 1}
	for i := 0; i < int(props.NumJoinMethods); i++ {
		m.C[i] = perPlan
	}
	return m
}

// seeded returns a model registry holding m as its one version, the way
// cmd/coted hands a server the model it resolved (Config.Models).
func seeded(m *core.TimeModel) *calib.Registry {
	r := calib.NewRegistry()
	r.Install(m, "seed", 0, 0)
	return r
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp, m
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp, m
}

// TestServerEndToEnd exercises the full serving path over HTTP: health,
// catalog listing and upload, estimate (cache miss then hit), admission
// control accepting, rejecting and downgrading a full optimization, and
// the metrics that observe all of it.
func TestServerEndToEnd(t *testing.T) {
	srv := New(Config{
		Workers:       4,
		CacheCapacity: 16,
		Budget:        50 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Liveness.
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, body)
	}

	// Built-in catalogs are listed.
	_, body = getJSON(t, ts.URL+"/v1/catalogs")
	names := map[string]bool{}
	for _, c := range body["catalogs"].([]any) {
		names[c.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"tpch", "warehouse1", "warehouse2", "tpch_p"} {
		if !names[want] {
			t.Fatalf("catalog %q missing from %v", want, body)
		}
	}

	// First estimate: a miss that fills the cache. No model is installed,
	// so no time prediction.
	est := func(sql string) (int, map[string]any) {
		resp, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Catalog: "tpch", SQL: sql})
		return resp.StatusCode, body
	}
	code, body := est(tpchQ3)
	if code != http.StatusOK {
		t.Fatalf("estimate: %d %v", code, body)
	}
	if body["cached"].(bool) {
		t.Fatal("first estimate claims cached")
	}
	e := body["estimate"].(map[string]any)
	if e["counts"].(map[string]any)["total"].(float64) <= 0 {
		t.Fatalf("no plans estimated: %v", e)
	}
	if _, ok := e["predicted_time_ns"]; ok {
		t.Fatalf("prediction without a model: %v", e)
	}

	// Second identical estimate hits the cache.
	_, body = est(tpchQ3)
	if !body["cached"].(bool) {
		t.Fatal("repeat estimate missed the cache")
	}

	// Install a cheap model: optimization is admitted at the requested
	// level and returns a plan.
	if resp, body := postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Model: testModel(1e-9)}); resp.StatusCode != http.StatusOK { // ~ns per plan: far under budget
		t.Fatalf("model install: %d %v", resp.StatusCode, body)
	}
	optimize := func(req OptimizeRequest) (int, map[string]any) {
		resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
		return resp.StatusCode, body
	}
	code, body = optimize(OptimizeRequest{Catalog: "tpch", SQL: tpchQ3})
	if code != http.StatusOK {
		t.Fatalf("optimize: %d %v", code, body)
	}
	adm := body["admission"].(map[string]any)
	if adm["action"] != string(AdmitAccept) || body["plan"] == "" || body["level"] != "inner2" {
		t.Fatalf("accept path: %v", body)
	}
	// With a model installed, estimates now carry predictions.
	_, body = est(tpchQ3)
	if body["estimate"].(map[string]any)["predicted_time_ns"].(float64) <= 0 {
		t.Fatal("cached estimate not re-priced with the new model")
	}

	// Install an expensive model: the same query is now priced over the
	// 50ms budget and rejected with 429.
	if resp, body := postJSON(t, ts.URL+"/v1/model", ModelUpdateRequest{Model: testModel(3600)}); resp.StatusCode != http.StatusOK { // an hour per plan
		t.Fatalf("model install: %d %v", resp.StatusCode, body)
	}
	code, body = optimize(OptimizeRequest{Catalog: "tpch", SQL: tpchQ3})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-budget optimize: %d %v", code, body)
	}
	adm = body["admission"].(map[string]any)
	if adm["action"] != string(AdmitReject) {
		t.Fatalf("reject path: %v", adm)
	}
	if adm["predicted_ns"].(float64) <= float64(50*time.Millisecond) {
		t.Fatalf("rejection without an over-budget prediction: %v", adm)
	}
	if _, ok := body["plan"]; ok {
		t.Fatalf("rejected request still compiled: %v", body)
	}

	// The same over-budget request with downgrading lands on the greedy
	// floor (every DP level is priced over an hour) and still gets a plan.
	code, body = optimize(OptimizeRequest{Catalog: "tpch", SQL: tpchQ3, OnOverBudget: "downgrade"})
	if code != http.StatusOK {
		t.Fatalf("downgrade optimize: %d %v", code, body)
	}
	adm = body["admission"].(map[string]any)
	if adm["action"] != string(AdmitDowngrade) || adm["admitted_level"] != "low" || body["level"] != "low" || body["plan"] == "" {
		t.Fatalf("downgrade path: %v", body)
	}

	// A per-request budget override can disable admission entirely.
	code, body = optimize(OptimizeRequest{Catalog: "tpch", SQL: tpchQ3, BudgetMS: -1})
	if code != http.StatusOK || body["admission"].(map[string]any)["action"] != string(AdmitAccept) {
		t.Fatalf("budget override: %d %v", code, body)
	}

	// Catalog upload, then estimation against the uploaded schema.
	def := CatalogDef{Name: "shop2", Tables: []TableDef{
		{Name: "item", Rows: 10_000, Columns: []ColumnDef{{Name: "id", NDV: 10_000}, {Name: "name", NDV: 9_000}}},
		{Name: "sale", Rows: 500_000, Columns: []ColumnDef{{Name: "item_id", NDV: 10_000}, {Name: "qty", NDV: 50}}},
	}}
	resp, body = postJSON(t, ts.URL+"/v1/catalogs", def)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		Catalog: "shop2", SQL: "SELECT name FROM item, sale WHERE id = item_id",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate on upload: %d %v", resp.StatusCode, body)
	}

	// Error mapping: unknown catalog 404, bad SQL 400, unknown level 400.
	if resp, _ := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Catalog: "nope", SQL: "SELECT 1"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown catalog: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Catalog: "tpch", SQL: "SELEC nope"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Catalog: "tpch", SQL: tpchQ3, Level: "ultra"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad level: %d", resp.StatusCode)
	}

	// Metrics observed all of it.
	_, m := getJSON(t, ts.URL+"/metrics")
	reqs := m["requests"].(map[string]any)
	if reqs["estimate"].(float64) < 3 || reqs["optimize"].(float64) < 4 {
		t.Fatalf("request counters: %v", reqs)
	}
	cache := m["estimate_cache"].(map[string]any)
	if cache["hits"].(float64) < 1 || cache["misses"].(float64) < 1 {
		t.Fatalf("cache counters: %v", cache)
	}
	admission := m["admission"].(map[string]any)
	if admission["accepted"].(float64) < 2 || admission["rejected"].(float64) < 1 || admission["downgraded"].(float64) < 1 {
		t.Fatalf("admission counters: %v", admission)
	}
	lat := m["latency"].(map[string]any)["estimate"].(map[string]any)
	if lat["count"].(float64) < 3 || lat["p99_us"].(float64) <= 0 {
		t.Fatalf("latency histogram: %v", lat)
	}
	pool := m["pool"].(map[string]any)
	if pool["workers"].(float64) != 4 || pool["running"].(float64) != 0 {
		t.Fatalf("pool gauges: %v", pool)
	}
	// The scan counters observed the enumerations. Nothing so far ran at a
	// level whose knobs rule out a whole size-class pair, so only visited
	// moved; a four-table left-deep estimate drops the (2, 2) class.
	scan := m["enum_scan"].(map[string]any)
	if scan["candidates_visited"].(float64) <= 0 {
		t.Fatalf("enum_scan counters: %v", scan)
	}
	resp, body = postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Catalog: "tpch", SQL: tpchQ4, Level: "leftdeep"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("left-deep estimate: %d %v", resp.StatusCode, body)
	}
	_, m = getJSON(t, ts.URL+"/metrics")
	if scan := m["enum_scan"].(map[string]any); scan["candidates_skipped"].(float64) <= 0 {
		t.Fatalf("enum_scan after a left-deep estimate: %v", scan)
	}
}

// TestServerCacheEviction runs the estimate endpoint against a capacity-2
// cache: a third distinct statement evicts the least recently used one.
func TestServerCacheEviction(t *testing.T) {
	srv := New(Config{Workers: 2, CacheCapacity: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	est := func(sql string) map[string]any {
		resp, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Catalog: "tpch", SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: %d %v", resp.StatusCode, body)
		}
		return body
	}
	est(tpchQ3)
	est(tpchQ4)
	if !est(tpchQ3)["cached"].(bool) { // refresh Q3: Q4 becomes LRU
		t.Fatal("Q3 evicted prematurely")
	}
	est(tpchQ6) // evicts Q4
	if st := srv.cache.Stats(); st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("cache size %d cap %d", st.Size, st.Capacity)
	}
	if !est(tpchQ3)["cached"].(bool) { // recently used survives (LRU, not FIFO)
		t.Fatal("recently used Q3 was evicted")
	}
	if est(tpchQ4)["cached"].(bool) {
		t.Fatal("evicted Q4 still cached")
	}
}

// TestServerCalibrate fits a model through the API and checks that
// estimates are priced with it afterwards.
func TestServerCalibrate(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration compiles a full workload")
	}
	srv := New(Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/calibrate", CalibrateRequest{Workload: "star"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("calibrate: %d %v", resp.StatusCode, body)
	}
	if body["points"].(float64) < 10 || body["model"] == "" {
		t.Fatalf("calibrate response: %v", body)
	}
	if srv.Model() == nil {
		t.Fatal("model not installed")
	}
	resp, body = postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Catalog: "tpch", SQL: tpchQ6})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d %v", resp.StatusCode, body)
	}
	if body["estimate"].(map[string]any)["predicted_time_ns"].(float64) <= 0 {
		t.Fatalf("no prediction after calibration: %v", body)
	}
}

// TestServerCalibrateRefusesNodes: a node count with no workload variant,
// cost configuration or release model behind it is the request's fault,
// refused before anything compiles.
func TestServerCalibrateRefusesNodes(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, n := range []int{-3, 2} {
		resp, body := postJSON(t, ts.URL+"/v1/calibrate", CalibrateRequest{Workload: "star", Nodes: n})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(fmt.Sprint(body), "must be 1 or 4") {
			t.Errorf("nodes %d: %d %v, want 400 naming 1 or 4", n, resp.StatusCode, body)
		}
	}
	if srv.Model() != nil {
		t.Fatalf("a refused calibration installed model %v", srv.Model())
	}
}

// TestServerCalibrateCancelled calibrates under a cancelled context: the
// call must fail with the cancellation and install no model.
func TestServerCalibrateCancelled(t *testing.T) {
	srv := New(Config{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Calibrate(ctx, CalibrateRequest{Workload: "star"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if srv.Model() != nil || srv.metrics.ModelInstalls.Value() != 0 {
		t.Fatalf("a cancelled calibration installed model %v", srv.Model())
	}
}

// TestServerConcurrentRequests hammers the estimate endpoint from many
// goroutines (run under -race this doubles as a data-race check on the
// whole serving path) and checks the stack unwinds without leaking a
// goroutine.
func TestServerConcurrentRequests(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := New(Config{Workers: 4, Queue: 64, CacheCapacity: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := []string{tpchQ3, tpchQ4, tpchQ6}
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 3; i++ {
				data, _ := json.Marshal(EstimateRequest{Catalog: "tpch", SQL: queries[(g+i)%len(queries)]})
				// The test server's own client, so ts.Close reaps the
				// keep-alive connections the leak guard would otherwise see.
				resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(data))
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
				resp.Body.Close()
				errs <- nil
			}
		}(g)
	}
	for i := 0; i < 24; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := srv.cache.Stats()
	hits, misses, shared := st.Hits, st.Misses, st.Shared
	if hits+misses+shared != 24 {
		t.Fatalf("cache saw %d lookups (%d hits, %d misses, %d shared), want 24", hits+misses+shared, hits, misses, shared)
	}
	if hits+shared < 1 {
		t.Fatal("no cache hits or shared flights under concurrency")
	}
}
