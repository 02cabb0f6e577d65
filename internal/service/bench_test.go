package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"cote/internal/testutil"
)

// Service hot-path benchmarks: the full request path (parse, cache, pool,
// estimate) with and without cache hits, as the baseline for later
// serving-layer perf work.

func benchEstimate(b *testing.B, req EstimateRequest) {
	srv := New(Config{Workers: 4})
	ctx := context.Background()
	if _, err := srv.Estimate(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Estimate(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceEstimateCacheHit measures the cached path: the repeat
// request costs one parse + signature + LRU lookup, no enumeration.
func BenchmarkServiceEstimateCacheHit(b *testing.B) {
	benchEstimate(b, EstimateRequest{Catalog: "tpch", SQL: tpchQ6})
}

// requestBody is a request body that can be rewound between requests.
type requestBody struct{ bytes.Reader }

func (*requestBody) Close() error { return nil }

// estimateHitServer returns a function that sends one /v1/estimate request
// through a fresh server's handler (no socket) and fails tb unless it is
// answered; the request has been served once, so every later call is a
// cache hit.
func estimateHitServer(tb testing.TB) func() {
	srv := New(Config{Workers: 4})
	h := srv.Handler()
	body, err := json.Marshal(EstimateRequest{Catalog: "tpch", SQL: tpchQ6})
	if err != nil {
		tb.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/estimate", nil)
	if err != nil {
		tb.Fatal(err)
	}
	var rb requestBody
	req.Body = &rb
	w := &headerWriter{h: make(http.Header)}
	serve := func() {
		rb.Reset(body)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			tb.Fatalf("status %d, %d body bytes", w.status, w.n)
		}
	}
	serve()
	return serve
}

// BenchmarkServiceHTTPEstimateCacheHit measures the cached path as a client
// sees it, through the handler: the body decode and the response encode
// around BenchmarkServiceEstimateCacheHit's work (no socket).
func BenchmarkServiceHTTPEstimateCacheHit(b *testing.B) {
	serve := estimateHitServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// TestServiceEstimateHitAllocs pins what a warm cache hit allocates through
// the handler, BenchmarkServiceHTTPEstimateCacheHit's request. The parse,
// fingerprint and canonical state is carved from the pooled statement arena
// or kept on the stack, so what is left is the request decode, the timeout
// context, the priced copy of the estimate with its response, and the
// response write. Measured with go1.24.0, warm and with the GC held off; the
// ceiling is exact, so one more allocation fails.
func TestServiceEstimateHitAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race changes allocation counts")
	}
	const want = 18
	if got, _ := testutil.AllocsWithoutGC(100, estimateHitServer(t)); got > want {
		t.Errorf("cached estimate through the handler = %.2f allocs, want <= %d", got, want)
	}
}

// estimateMissServer returns a function that sends one estimate through
// BenchmarkServiceEstimateCacheMiss's server: a one-entry cache alternating
// two structures, so every call enumerates in a pool slot.
func estimateMissServer(tb testing.TB) func() {
	srv := New(Config{Workers: 4, CacheCapacity: 1})
	reqs := [2]EstimateRequest{{Catalog: "tpch", SQL: tpchQ6}, {Catalog: "tpch", SQL: tpchQ3}}
	i := 0
	return func() {
		i++
		if resp, err := srv.Estimate(context.Background(), reqs[i%2]); err != nil || resp.Cached {
			tb.Fatalf("estimate miss: cached=%v, %v", resp != nil && resp.Cached, err)
		}
	}
}

// TestServiceEstimateMissAllocs pins what an estimate miss allocates
// through Server.Estimate, parse to priced response, on a warm pool. The
// run takes its pool slot on the request's goroutine, so the request's
// statement and the closures around the enumeration stay on its stack.
// Measured with go1.24.0, warm and with the GC held off; the ceiling is
// exact.
func TestServiceEstimateMissAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race changes allocation counts")
	}
	const want = 16
	if got, _ := testutil.AllocsWithoutGC(100, estimateMissServer(t)); got > want {
		t.Errorf("estimate miss = %.2f allocs, want <= %d", got, want)
	}
}

// TestServiceOptimizeAllocs pins what BenchmarkServiceOptimize's admitted
// compile allocates through Server.Optimize, its estimate a cache hit after
// the first call. Measured like TestServiceEstimateMissAllocs; the ceiling
// is exact.
func TestServiceOptimizeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race changes allocation counts")
	}
	srv := New(Config{Workers: 4})
	req := OptimizeRequest{Catalog: "tpch", SQL: tpchQ3}
	const want = 14
	got, _ := testutil.AllocsWithoutGC(100, func() {
		if _, err := srv.Optimize(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Errorf("optimize = %.2f allocs, want <= %d", got, want)
	}
}

// BenchmarkServiceEstimateCacheMiss measures the miss path: a one-entry
// cache alternating two structures evicts each before it repeats, so every
// request runs the full plan-estimate enumeration through the pool.
func BenchmarkServiceEstimateCacheMiss(b *testing.B) {
	srv := New(Config{Workers: 4, CacheCapacity: 1})
	ctx := context.Background()
	reqs := [2]EstimateRequest{{Catalog: "tpch", SQL: tpchQ6}, {Catalog: "tpch", SQL: tpchQ3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Estimate(ctx, reqs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits := srv.Metrics().CacheHits.Value(); hits != 0 {
		b.Fatalf("%d cache hits, want every request to miss", hits)
	}
}

// BenchmarkServiceOptimize measures a full admitted optimization (no
// budget set, so admission is a no-op).
func BenchmarkServiceOptimize(b *testing.B) {
	srv := New(Config{Workers: 4})
	ctx := context.Background()
	req := OptimizeRequest{Catalog: "tpch", SQL: tpchQ3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Optimize(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
