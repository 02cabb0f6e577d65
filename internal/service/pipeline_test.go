package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// cacheTouches is how many times requests reached the estimate cache.
func cacheTouches(m *Metrics) int64 {
	return m.CacheHits.Value() + m.CacheMisses.Value() + m.SharedFlights.Value()
}

// TestOptimizeTouchesCacheOncePerLevel: admission by time, admission by
// memory, the progress/budget baseline and the calibration observation of
// one optimize request all read one estimate of the level it settles on.
func TestOptimizeTouchesCacheOncePerLevel(t *testing.T) {
	srv := New(Config{Workers: 2})
	srv.SetModel(testModel(1e-9))
	before := cacheTouches(srv.Metrics())
	resp, err := srv.Optimize(context.Background(), OptimizeRequest{
		Catalog: "tpch", SQL: tpchQ3, BudgetMS: 60_000, MemBudgetBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	adm := resp.Admission
	if adm.Action != AdmitAccept || adm.PredictedNS <= 0 || adm.PredictedBytes <= 0 || resp.Plan == "" {
		t.Fatalf("request did not exercise both budgets and compile: %+v", adm)
	}
	if got := cacheTouches(srv.Metrics()) - before; got != 1 {
		t.Fatalf("one optimize request reached the estimate cache %d times, want 1", got)
	}
	// The calibration record of the compile carries the measured peak the
	// response reports, and the estimate's structural counts beside it.
	log := srv.Calibrator().Log().Snapshot()
	if len(log) != 1 {
		t.Fatalf("%d calibration records, want 1", len(log))
	}
	if o := log[0]; o.PeakBytes != resp.PeakBytes || o.PeakBytes <= 0 || o.Entries <= 0 || o.EstimatedPlans <= 0 {
		t.Fatalf("record peak %d entries %d plans %d, response peak_bytes %d", o.PeakBytes, o.Entries, o.EstimatedPlans, resp.PeakBytes)
	}
}

// TestBatchObservesPerGroup: a batch records one latency and one shed-EWMA
// sample per estimated group, so a large batch does not read as one very
// slow estimate.
func TestBatchObservesPerGroup(t *testing.T) {
	srv := New(Config{Workers: 2})
	def := CatalogDef{Name: "wide", Tables: []TableDef{
		{Name: "a", Rows: 1e6, Columns: []ColumnDef{{Name: "ak", NDV: 1000}}},
		{Name: "b", Rows: 1e4, Columns: []ColumnDef{{Name: "bk", NDV: 1000}}},
	}}
	for i := 0; i < 8; i++ {
		def.Tables[0].Columns = append(def.Tables[0].Columns, ColumnDef{Name: fmt.Sprintf("c%d", i), NDV: 100})
		def.Tables[1].Columns = append(def.Tables[1].Columns, ColumnDef{Name: fmt.Sprintf("d%d", i), NDV: 100})
	}
	if _, err := srv.Registry().Register(def); err != nil {
		t.Fatal(err)
	}
	var stmts []string
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			stmts = append(stmts, fmt.Sprintf("SELECT c%d, d%d FROM a, b WHERE ak = bk", i, j))
		}
	}
	samples := srv.Metrics().EstimateLatency.Count()
	start := time.Now()
	resp, err := srv.EstimateBatch(context.Background(), EstimateBatchRequest{Catalog: "wide", Statements: stmts})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Distinct != len(stmts) {
		t.Fatalf("distinct = %d, want %d", resp.Distinct, len(stmts))
	}
	if got := srv.Metrics().EstimateLatency.Count() - samples; got != int64(resp.Distinct) {
		t.Fatalf("latency histogram advanced by %d, want one sample per group (%d)", got, resp.Distinct)
	}
	if avg := srv.shed.AvgRun(); avg <= 0 || avg >= elapsed/4 {
		t.Fatalf("shed EWMA %v after a %d-group batch that took %v: the batch was observed as one run", avg, resp.Distinct, elapsed)
	}
}

// TestPostBodyMustBeOneJSONValue: every POST endpoint accepts its body with
// trailing whitespace and rejects a second value or garbage after it.
func TestPostBodyMustBeOneJSONValue(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Each body decodes; the cheap ones are refused later in their endpoint,
	// which is enough to tell "decoded" from "rejected as trailing data".
	endpoints := []struct{ path, body string }{
		{"/v1/estimate", `{"catalog":"tpch","sql":"SELECT c_name FROM customer"}`},
		{"/v1/estimate/batch", `{"catalog":"tpch","statements":["SELECT c_name FROM customer"]}`},
		{"/v1/optimize", `{"catalog":"tpch","sql":"SELECT c_name FROM customer"}`},
		{"/v1/calibrate", `{"workload":"no-such-workload"}`},
		{"/v1/model", `{"rollback":99}`},
		{"/v1/catalogs", `{"name":"one","tables":[{"name":"t","rows":10,"columns":[{"name":"c","ndv":5}]}]}`},
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	for _, e := range endpoints {
		plainStatus, plain := post(e.path, e.body)
		if strings.Contains(plain, "trailing data") {
			t.Errorf("%s: bare body rejected: %s", e.path, plain)
		}
		if status, got := post(e.path, e.body+"\n \t\r\n"); status != plainStatus || strings.Contains(got, "trailing data") {
			t.Errorf("%s: trailing whitespace changed the outcome: %d (bare %d) %s", e.path, status, plainStatus, got)
		}
		for _, tail := range []string{e.body, " garbage", "}", "0"} {
			status, got := post(e.path, e.body+tail)
			if status != http.StatusBadRequest || !strings.Contains(got, `"code": "bad_request"`) || !strings.Contains(got, "trailing data") {
				t.Errorf("%s: body followed by %q answered %d %s, want 400 bad_request", e.path, tail, status, got)
			}
		}
	}
}

// TestStatementRoutesRejectRemovedFields: compiles and estimates each have
// one serial driver and no parallelism field, and every estimate goes
// through the cache with no no_cache field, so a body carrying either is an
// unknown field (400) on every statement route that once took it.
func TestStatementRoutesRejectRemovedFields(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range []struct {
		path, field string
		body        map[string]any
	}{
		{"/v1/estimate", "parallelism", map[string]any{"catalog": "tpch", "sql": tpchQ3, "parallelism": 4}},
		{"/v1/estimate/batch", "parallelism", map[string]any{"catalog": "tpch", "statements": []string{tpchQ3}, "parallelism": 4}},
		{"/v1/optimize", "parallelism", map[string]any{"catalog": "tpch", "sql": tpchQ3, "parallelism": 4}},
		{"/v1/estimate", "no_cache", map[string]any{"catalog": "tpch", "sql": tpchQ3, "no_cache": true}},
		{"/v1/estimate/batch", "no_cache", map[string]any{"catalog": "tpch", "statements": []string{tpchQ3}, "no_cache": true}},
	} {
		data, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+c.path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := string(out); resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, `"code": "bad_request"`) || !strings.Contains(got, c.field) {
			t.Errorf("%s with %s answered %d %s, want 400 bad_request naming the field", c.path, c.field, resp.StatusCode, got)
		}
	}
}
