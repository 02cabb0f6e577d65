// Chaos soak: the full serving stack — HTTP server, pool, caches, admission,
// shedding — driven by concurrent retrying clients while a deterministic
// fault plan fails pool acquisitions, cache fills and memory budgets
// underneath it. The test proves the robustness contract end to end:
//
//   - every successful estimate is byte-identical to the fault-free baseline
//     (faults can fail requests, never corrupt them);
//   - every failure surfaces as a taxonomy-coded apiError (no raw 500s, no
//     undecodable bodies);
//   - the armed fault points actually fired (the plan was not a no-op);
//   - the whole stack unwinds without leaking a goroutine.
//
// It drives the server through the retrying client of client_test.go.
package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cote/internal/faultinject"
	"cote/internal/service"
	"cote/internal/testutil"
)

// chaosQueries are structurally distinct TPC-H shapes (different table
// sets), so the soak exercises several cache keys concurrently.
var chaosQueries = []string{
	`SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey`,
	`SELECT c_name FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey`,
	`SELECT c_name FROM customer, orders, lineitem, supplier
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey`,
	`SELECT n_name FROM customer, orders, lineitem, supplier, nation, region
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
		  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
		  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey`,
}

// knownCodes is the closed set of taxonomy codes a chaos client may see.
// CodeInternal is deliberately absent: an injected fault that surfaces as a
// bare 500 means some layer dropped the error chain.
var knownCodes = map[string]bool{
	service.CodeShedOverload:    true,
	service.CodeQueueFull:       true,
	service.CodeDependencyFault: true,
	service.CodeTimeout:         true,
	service.CodeMemOverBudget:   true,
	service.CodeOverBudget:      true,
}

// normalizeEstimate strips the per-run fields (wall time, cache provenance)
// and renders the rest; two estimates of the same query must collapse to the
// same string whether they hit a cache, shared a flight, or enumerated.
func normalizeEstimate(t *testing.T, resp *service.EstimateResponse) string {
	t.Helper()
	resp.Cached = false
	resp.Estimate.Elapsed = 0
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("marshal estimate: %v", err)
	}
	return string(b)
}

func newChaosServer() *service.Server {
	return service.New(service.Config{Workers: 2, Queue: 16, RequestTimeout: 10 * time.Second})
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	for _, seed := range []uint64{1, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testutil.CheckGoroutines(t)

			// Phase 1: fault-free baseline, one canonical body per query.
			baseline := make([]string, len(chaosQueries))
			{
				ts := httptest.NewServer(newChaosServer().Handler())
				c := newClient(clientConfig{BaseURL: ts.URL, HTTPClient: ts.Client(), Seed: int64(seed)})
				for i, sql := range chaosQueries {
					resp, err := c.Estimate(context.Background(), service.EstimateRequest{Catalog: "tpch", SQL: sql})
					if err != nil {
						t.Fatalf("baseline estimate %d: %v", i, err)
					}
					baseline[i] = normalizeEstimate(t, resp)
				}
				ts.Close()
			}

			// Phase 2: same queries under an armed fault plan. Rates are
			// high enough that every point trips and low enough that the
			// 4-attempt retry discipline still lands most requests.
			plan, err := faultinject.NewPlan(seed,
				faultinject.Rule{Point: faultinject.PointPoolAcquire, Error: true, Latency: 100 * time.Microsecond, Prob: 0.15},
				faultinject.Rule{Point: faultinject.PointCacheFill, Error: true, Prob: 0.2, After: 2},
				faultinject.Rule{Point: faultinject.PointMemBudget, Error: true, Times: 10},
			)
			if err != nil {
				t.Fatalf("NewPlan: %v", err)
			}
			faultinject.Activate(plan)
			defer faultinject.Deactivate()

			srv := newChaosServer()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			clients := 8
			iters := 12
			if testutil.RaceEnabled {
				clients, iters = 4, 8
			}
			type outcome struct {
				query int
				body  string
				err   error
			}
			results := make(chan outcome, clients*iters)
			var wg sync.WaitGroup
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := newClient(clientConfig{
						BaseURL:     ts.URL,
						HTTPClient:  ts.Client(),
						Seed:        int64(seed)*100 + int64(w),
						MaxAttempts: 4,
						BaseBackoff: time.Millisecond,
						MaxBackoff:  20 * time.Millisecond,
					})
					for i := 0; i < iters; i++ {
						q := (w + i) % len(chaosQueries)
						resp, err := c.Estimate(context.Background(), service.EstimateRequest{Catalog: "tpch", SQL: chaosQueries[q]})
						if err != nil {
							results <- outcome{query: q, err: err}
							continue
						}
						results <- outcome{query: q, body: normalizeEstimate(t, resp)}
					}
				}(w)
			}
			wg.Wait()
			close(results)

			succeeded, failed := 0, 0
			for r := range results {
				if r.err != nil {
					failed++
					ae, ok := r.err.(*apiError)
					if !ok {
						t.Errorf("non-taxonomy error under chaos: %T: %v", r.err, r.err)
						continue
					}
					if !knownCodes[ae.Code] {
						t.Errorf("unexpected taxonomy code %q (status %d): %s", ae.Code, ae.Status, ae.Message)
					}
					continue
				}
				succeeded++
				if r.body != baseline[r.query] {
					t.Errorf("query %d diverged from fault-free baseline under chaos:\n got %s\nwant %s",
						r.query, r.body, baseline[r.query])
				}
			}
			total := clients * iters
			if succeeded == 0 {
				t.Fatalf("all %d requests failed; fault rates out of tune", total)
			}
			// The retry discipline (4 attempts vs p=0.15/0.2 fault rates)
			// should land the overwhelming majority; a high floor here turns
			// a broken retry loop into a failure instead of a statistic.
			if failed > total/2 {
				t.Errorf("%d/%d requests failed despite retries", failed, total)
			}
			t.Logf("chaos soak seed=%d: %d ok, %d failed of %d", seed, succeeded, failed, total)

			// The plan must have actually fired.
			stats := faultinject.Stats()
			for _, point := range []string{faultinject.PointPoolAcquire, faultinject.PointCacheFill, faultinject.PointMemBudget} {
				st := stats[point]
				if st.Calls == 0 || st.Trips == 0 {
					t.Errorf("point %s: calls=%d trips=%d; the chaos plan never bit there", point, st.Calls, st.Trips)
				}
			}
		})
	}
}

// TestChaosCatalogAndModelFaults drives the control-plane fault points:
// catalog upload and model install must fail cleanly (503 dependency_fault,
// no partial registry state) while the data plane keeps serving.
func TestChaosCatalogAndModelFaults(t *testing.T) {
	testutil.CheckGoroutines(t)
	plan, err := faultinject.NewPlan(11,
		faultinject.Rule{Point: faultinject.PointCatalogRegister, Error: true},
		faultinject.Rule{Point: faultinject.PointModelSwap, Error: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(plan)
	defer faultinject.Deactivate()

	srv := newChaosServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(clientConfig{BaseURL: ts.URL, HTTPClient: ts.Client(), MaxAttempts: 2, BaseBackoff: time.Millisecond})

	// Catalog upload: every attempt trips, the client exhausts retries and
	// surfaces dependency_fault; the name must stay unregistered.
	body := `{"name":"chaoscat","tables":[{"name":"t","rows":10,"columns":[{"name":"a","ndv":10}]}]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/catalogs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb service.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("upload error body undecodable: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || eb.Code != service.CodeDependencyFault {
		t.Fatalf("faulted upload: status=%d code=%q, want 503 %s", resp.StatusCode, eb.Code, service.CodeDependencyFault)
	}
	if _, err := srv.Registry().Get("chaoscat"); err == nil {
		t.Fatal("faulted upload half-registered the catalog")
	}

	// The data plane is unaffected: estimates against built-ins still work.
	if _, err := c.Estimate(context.Background(), service.EstimateRequest{Catalog: "tpch", SQL: chaosQueries[0]}); err != nil {
		t.Fatalf("estimate under control-plane faults: %v", err)
	}

	// Model install trips the swap point before the registry changes.
	mreq, _ := json.Marshal(map[string]any{"model": map[string]any{"tinst": 1e-8}})
	resp, err = ts.Client().Post(ts.URL+"/v1/model", "application/json", strings.NewReader(string(mreq)))
	if err != nil {
		t.Fatal(err)
	}
	eb = service.ErrorBody{}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("model error body undecodable: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || eb.Code != service.CodeDependencyFault {
		t.Fatalf("faulted model install: status=%d code=%q, want 503 %s", resp.StatusCode, eb.Code, service.CodeDependencyFault)
	}
	if srv.Model() != nil {
		t.Fatal("faulted install swapped the model anyway")
	}
}
