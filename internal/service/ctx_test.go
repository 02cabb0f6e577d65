// Deadline, progress and budget-abort behaviour of the serving path: a
// request timeout must stop the compile cooperatively and return the worker
// slot, /v1/progress must expose in-flight runs, and a configured budget
// factor must abort-and-downgrade mid-flight compiles.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"cote/internal/optctx"
)

// heavySQL joins all eight TPC-H tables: at the unrestricted "high" level it
// generates tens of thousands of plans, so its progress meter ticks many
// times before it finishes.
const heavySQL = `SELECT c_name FROM customer, orders, lineitem, supplier, nation, region, part, partsupp
	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
	  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
	  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	  AND p_partkey = l_partkey AND ps_partkey = p_partkey AND ps_suppkey = s_suppkey`

// TestOptimizeDeadlineStopsCompileAndFreesSlot cancels a request's own
// context from inside its compile — the moment the server's progress table
// shows the compile generating plans, so it is provably running in the pool
// — with no sleep and no wall-clock bound. The request must fail with the
// cancellation, and the compile must unwind and hand back the only worker
// slot: the next request queues for it and must then compile exactly what a
// fresh server compiles, so nothing the cancelled compile held is shared
// with it.
func TestOptimizeDeadlineStopsCompileAndFreesSlot(t *testing.T) {
	req := OptimizeRequest{Catalog: "tpch", SQL: heavySQL, Level: "high"}
	want, err := New(Config{Workers: 1}).Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	seen := make(chan ProgressInfo, 1)
	srv.progress.hooks.OnProgress = func(generated, _ int64) {
		once.Do(func() {
			for _, run := range srv.progress.snapshot() {
				if run.Generated > 0 {
					seen <- run
					break
				}
			}
			cancel()
		})
	}
	if _, err := srv.Optimize(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case run := <-seen:
		if run.Level != "high" {
			t.Fatalf("progress table showed %+v, want the high-level compile", run)
		}
	default:
		t.Fatal("the progress table never showed the compile generating plans")
	}

	got, err := srv.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("follow-up request on the freed slot: %v", err)
	}
	if queued, running := srv.pool.Depth(); queued != 0 || running != 0 {
		t.Fatalf("pool depth after the follow-up: queued %d, running %d", queued, running)
	}
	got.ElapsedNS, want.ElapsedNS = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("follow-up compile differs from a fresh server's:\n got  %+v\n want %+v", got, want)
	}
}

// TestPoolContextExpiryWhileRunning pins the abandoned-run semantics in
// isolation: Run returns ctx.Err() the moment the context expires, counts
// the run abandoned, and releases the slot only when fn actually returns.
func TestPoolContextExpiryWhileRunning(t *testing.T) {
	p := NewPool(1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	returned := make(chan error, 1)
	go func() {
		_, err := Run(p, ctx, func() (int, error) {
			<-release
			return 0, nil
		})
		returned <- err
	}()
	// Wait until fn holds the slot, then expire the caller's context.
	for {
		if _, running := p.Depth(); running == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-returned; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if got := p.Abandoned(); got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
	if _, running := p.Depth(); running != 1 {
		t.Fatalf("slot released before fn returned (running=%d)", running)
	}
	close(release)
	for {
		if _, running := p.Depth(); running == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProgressEndpoint(t *testing.T) {
	srv := New(Config{Workers: 2})
	srv.SetModel(testModel(1e-9)) // installs predictions: progress has a denominator
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Empty before any request.
	_, body := getJSON(t, ts.URL+"/v1/progress")
	if got := body["in_flight"].([]any); len(got) != 0 {
		t.Fatalf("idle server reports in-flight runs: %v", got)
	}

	// Keep a window of heavy compiles in flight and catch one mid-run.
	reqDone := make(chan error, 1)
	go func() {
		for i := 0; i < 5; i++ {
			data, _ := json.Marshal(OptimizeRequest{Catalog: "tpch", SQL: heavySQL, Level: "high"})
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(data))
			if err != nil {
				reqDone <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				reqDone <- errors.New(resp.Status)
				return
			}
		}
		reqDone <- nil
	}()

	var seen map[string]any
	deadline := time.Now().Add(10 * time.Second)
poll:
	for time.Now().Before(deadline) {
		_, body := getJSON(t, ts.URL+"/v1/progress")
		for _, e := range body["in_flight"].([]any) {
			seen = e.(map[string]any)
			break poll
		}
		select {
		case err := <-reqDone:
			if err != nil {
				t.Fatal(err)
			}
			t.Skip("all five heavy compiles finished before a progress poll landed")
		default:
		}
		time.Sleep(500 * time.Microsecond)
	}
	if seen == nil {
		t.Fatal("no in-flight run observed")
	}
	if seen["catalog"] != "tpch" || seen["level"] != "high" {
		t.Errorf("progress entry: %v", seen)
	}
	if seen["predicted"].(float64) <= 0 {
		t.Errorf("no prediction in the progress meter (model installed): %v", seen)
	}
	if pct := seen["percent"].(float64); pct < 0 || pct > 100 {
		t.Errorf("percent %v outside [0, 100]", pct)
	}
	if _, ok := seen["stages"].(map[string]any); !ok {
		t.Errorf("no per-stage breakdown: %v", seen)
	}

	if err := <-reqDone; err != nil {
		t.Fatal(err)
	}
	_, body = getJSON(t, ts.URL+"/v1/progress")
	if got := body["in_flight"].([]any); len(got) != 0 {
		t.Fatalf("progress entries leaked after completion: %v", got)
	}

	// The per-stage counters surfaced in /metrics too.
	_, m := getJSON(t, ts.URL+"/metrics")
	stages := m["stages"].(map[string]any)
	if stages["parse"].(map[string]any)["count"].(float64) < 5 {
		t.Errorf("parse stage uncounted: %v", stages)
	}
	if stages["generate"].(map[string]any)["count"].(float64) <= 0 {
		t.Errorf("generate stage uncounted: %v", stages)
	}
}

func TestServerBudgetAbortDowngrades(t *testing.T) {
	srv := New(Config{Workers: 2, Downgrade: true, BudgetFactor: 0.02, Model: testModel(1e-9)})
	resp, err := srv.Optimize(context.Background(), OptimizeRequest{Catalog: "tpch", SQL: tpchQ6})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.BudgetAborted) == 0 {
		t.Fatalf("no level aborted under a 0.02 budget factor: %+v", resp)
	}
	if resp.BudgetAborted[0] != "inner2" {
		t.Errorf("first abort %q, want the admitted level inner2", resp.BudgetAborted[0])
	}
	if resp.Plan == "" || resp.Level == "inner2" {
		t.Errorf("downgrade did not land on a cheaper level with a plan: level=%q plan?=%v", resp.Level, resp.Plan != "")
	}
	if got := srv.metrics.BudgetAborts.Value(); got < 1 {
		t.Errorf("budget_aborts metric = %d, want >= 1", got)
	}
}

func TestServerBudgetAbortRejectsWithoutDowngrade(t *testing.T) {
	srv := New(Config{Workers: 2, BudgetFactor: 0.02, Model: testModel(1e-9)})
	_, err := srv.Optimize(context.Background(), OptimizeRequest{Catalog: "tpch", SQL: tpchQ6})
	if !errors.Is(err, optctx.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
