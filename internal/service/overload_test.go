package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cote/internal/opt"
)

func TestShedderQueueBound(t *testing.T) {
	p := NewPool(2, 4)
	sh := newShedder(p, 0)
	if err := sh.Admit(context.Background()); err != nil {
		t.Fatalf("empty pool shed: %v", err)
	}
	// Fake a waiting line at the shed bound.
	p.inflight.Add(4)
	err := sh.Admit(context.Background())
	se, ok := err.(*shedError)
	if !ok {
		t.Fatalf("got %v, want *shedError at the queue bound", err)
	}
	if se.retryAfter != sh.drainEstimate(4) {
		t.Errorf("retryAfter %v != drain estimate %v", se.retryAfter, sh.drainEstimate(4))
	}
	p.inflight.Add(-1)
	if err := sh.Admit(context.Background()); err != nil {
		t.Fatalf("one below the bound shed: %v", err)
	}
}

func TestShedderDeadlineAware(t *testing.T) {
	p := NewPool(1, 8)
	sh := newShedder(p, 0)
	sh.observe(100 * time.Millisecond) // seed the EWMA
	p.inflight.Add(4)                  // 4 waiting, 1 worker → ~400ms projected wait

	// A deadline beyond the projected wait passes.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := sh.Admit(ctx); err != nil {
		t.Fatalf("roomy deadline shed: %v", err)
	}
	// A deadline inside it sheds.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, ok := sh.Admit(ctx2).(*shedError); !ok {
		t.Fatal("deadline inside the projected wait was not shed")
	}
	// The margin tightens the same check.
	shMargin := newShedder(p, time.Hour)
	shMargin.observe(time.Microsecond)
	if _, ok := shMargin.Admit(ctx).(*shedError); !ok {
		t.Fatal("deadline inside the shed margin was not shed")
	}
	// No deadline → nothing to be deadline-aware about.
	if err := sh.Admit(context.Background()); err != nil {
		t.Fatalf("deadline-free request shed: %v", err)
	}
}

func TestShedderEWMA(t *testing.T) {
	sh := newShedder(NewPool(1, 1), 0)
	if sh.AvgRun() != 0 {
		t.Fatal("fresh EWMA not zero")
	}
	sh.observe(80 * time.Millisecond)
	if got := sh.AvgRun(); got != 80*time.Millisecond {
		t.Fatalf("first observation %v, want seeded 80ms", got)
	}
	sh.observe(160 * time.Millisecond)
	if got := sh.AvgRun(); got != 90*time.Millisecond { // 80 + (160-80)/8
		t.Fatalf("EWMA after 160ms = %v, want 90ms", got)
	}
}

func TestPressureRungsAndLadder(t *testing.T) {
	p := NewPool(2, 16)
	sh := newShedder(p, 0)
	for _, tc := range []struct {
		waiting int64
		rungs   int
	}{
		{0, 0}, {7, 0}, {8, 1}, {11, 1}, {12, 2}, {16, 2},
	} {
		p.inflight.Store(tc.waiting)
		if got := sh.PressureRungs(); got != tc.rungs {
			t.Errorf("waiting=%d: rungs=%d, want %d", tc.waiting, got, tc.rungs)
		}
	}
	if l, n := downgradeForPressure(opt.LevelHigh, 2); l != opt.LevelMediumZigZag || n != 2 {
		t.Errorf("high -2 rungs = %v (%d), want zigzag (2)", l, n)
	}
	if l, n := downgradeForPressure(opt.LevelLow, 2); l != opt.LevelLow || n != 0 {
		t.Errorf("low -2 rungs = %v (%d), want floor untouched", l, n)
	}
	if l, n := downgradeForPressure(opt.LevelMediumLeftDeep, 3); l != opt.LevelLow || n != 1 {
		t.Errorf("leftdeep -3 rungs = %v (%d), want low (1)", l, n)
	}
}

// TestShedRespondsWith429 drives the HTTP surface: a saturated waiting line
// must shed with 429, the shed_overload taxonomy code, a Retry-After header,
// and a ticked shed_requests metric — before any SQL is parsed.
func TestShedRespondsWith429(t *testing.T) {
	srv := New(Config{Workers: 2, Queue: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.pool.inflight.Add(4) // saturate the shed bound
	defer srv.pool.inflight.Add(-4)

	resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json",
		strings.NewReader(`{"catalog":"tpch","sql":"SELECT c_name FROM customer"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("shed body undecodable: %v", err)
	}
	if eb.Code != CodeShedOverload {
		t.Errorf("code %q, want %s", eb.Code, CodeShedOverload)
	}
	if got := srv.metrics.ShedRequests.Value(); got != 1 {
		t.Errorf("shed_requests = %d, want 1", got)
	}
	// The parse stage must not have moved: shedding happens pre-parse.
	if got := srv.metrics.StageCount[0].Value(); got != 0 {
		t.Errorf("parse stage count = %d after a shed; shedding must precede parsing", got)
	}
}

// TestOverloadLadderDowngradesOptimize pins the pressure ladder end to end:
// at two rungs of queue pressure an optimize asking for "high" compiles at
// "zigzag", the response records the rungs, and the admission decision still
// reports the client's requested level.
func TestOverloadLadderDowngradesOptimize(t *testing.T) {
	srv := New(Config{Workers: 4, Queue: 16})
	srv.pool.inflight.Add(12) // 12 waiting ≥ 3/4 of Queue=16 → 2 rungs
	defer srv.pool.inflight.Add(-12)

	resp, err := srv.Optimize(context.Background(), OptimizeRequest{
		Catalog: "tpch",
		SQL:     "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey",
		Level:   "high",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OverloadRungs != 2 {
		t.Errorf("OverloadRungs = %d, want 2", resp.OverloadRungs)
	}
	if resp.Level != "zigzag" {
		t.Errorf("compiled at %q, want zigzag (high minus two rungs)", resp.Level)
	}
	if resp.Admission.RequestedLevel != "high" {
		t.Errorf("decision reports requested %q, want the client's high", resp.Admission.RequestedLevel)
	}
	if got := srv.metrics.OverloadDowngrades.Value(); got != 1 {
		t.Errorf("overload_downgrades = %d, want 1", got)
	}

	// Unloaded, the same request runs at the requested level.
	srv2 := New(Config{Workers: 4, Queue: 16})
	resp2, err := srv2.Optimize(context.Background(), OptimizeRequest{
		Catalog: "tpch",
		SQL:     "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey",
		Level:   "high",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.OverloadRungs != 0 || resp2.Level != "high" {
		t.Errorf("unloaded: rungs=%d level=%q, want 0/high", resp2.OverloadRungs, resp2.Level)
	}
}

// BenchmarkShedReject prices the refusal path — the acceptance bar is that a
// shed request costs well under 5% of the estimate it displaces (compare
// with BenchmarkServerEstimate): no parsing, no pool, one Depth read and an
// error allocation.
func BenchmarkShedReject(b *testing.B) {
	srv := New(Config{Workers: 2, Queue: 4})
	srv.pool.inflight.Add(4)
	defer srv.pool.inflight.Add(-4)
	req := EstimateRequest{Catalog: "tpch", SQL: "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Estimate(context.Background(), req); err == nil {
			b.Fatal("saturated server admitted the request")
		}
	}
}
