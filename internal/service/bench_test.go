package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
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

// BenchmarkServiceHTTPEstimateCacheHit measures the cached path as a client
// sees it, through the handler: the body decode and the response encode
// around BenchmarkServiceEstimateCacheHit's work (no socket).
func BenchmarkServiceHTTPEstimateCacheHit(b *testing.B) {
	srv := New(Config{Workers: 4})
	h := srv.Handler()
	body, err := json.Marshal(EstimateRequest{Catalog: "tpch", SQL: tpchQ6})
	if err != nil {
		b.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/estimate", nil)
	if err != nil {
		b.Fatal(err)
	}
	var rb requestBody
	req.Body = &rb
	w := &headerWriter{h: make(http.Header)}
	serve := func() {
		rb.Reset(body)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			b.Fatalf("status %d, %d body bytes", w.status, w.n)
		}
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
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
