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
	"runtime"
	"strings"
	"sync"
	"testing"

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

// goid returns the calling goroutine's ID, read from its stack header.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestPoolContextExpiryWhileRunning pins Run's contract when the caller's
// context ends mid-run: fn runs on the caller's goroutine and sees the
// cancellation through the context, and Run returns only after fn, with the
// slot back and the run counted as abandoned.
func TestPoolContextExpiryWhileRunning(t *testing.T) {
	p := NewPool(1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	caller := goid()
	finished := false
	_, err := Run(p, ctx, func() (int, error) {
		if g := goid(); g != caller {
			t.Errorf("fn ran on goroutine %s, want the caller's %s", g, caller)
		}
		if _, running := p.Depth(); running != 1 {
			t.Errorf("fn runs without its slot (running=%d)", running)
		}
		cancel()
		select {
		case <-ctx.Done():
		default:
			t.Error("fn does not see its caller's cancellation")
		}
		finished = true
		return 0, ctx.Err()
	})
	if !finished || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v with fn finished=%v, want context.Canceled after fn", err, finished)
	}
	if got := p.Abandoned(); got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
	if waiting, running := p.Depth(); waiting != 0 || running != 0 {
		t.Fatalf("Run returned holding the slot: waiting %d, running %d", waiting, running)
	}
}

// TestPoolRefusesDoneContext sends a request whose context is already done
// to a pool with free slots: fn must never run, whichever way a select over
// a free slot and a done context would fall.
func TestPoolRefusesDoneContext(t *testing.T) {
	p := NewPool(4, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		_, err := Run(p, ctx, func() (int, error) {
			t.Fatal("fn ran for a cancelled request")
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: %v, want context.Canceled", i, err)
		}
	}
	if waiting, running := p.Depth(); waiting != 0 || running != 0 || p.Abandoned() != 0 {
		t.Fatalf("waiting %d, running %d, abandoned %d after refusals", waiting, running, p.Abandoned())
	}
}

// TestPoolPanicReleasesSlot panics inside fn: the panic reaches Run's caller,
// and the slot is back before it does.
func TestPoolPanicReleasesSlot(t *testing.T) {
	p := NewPool(1, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fn's panic did not reach Run's caller")
			}
		}()
		_, _ = Run(p, context.Background(), func() (int, error) { panic("boom") })
	}()
	if waiting, running := p.Depth(); waiting != 0 || running != 0 {
		t.Fatalf("slot held after a panic: waiting %d, running %d", waiting, running)
	}
}

// TestProgressEndpoint reads GET /v1/progress from inside a running
// compile's progress hook, so the compile is in flight by construction.
func TestProgressEndpoint(t *testing.T) {
	srv := New(Config{Workers: 2, Models: seeded(testModel(1e-9))}) // predictions: progress has a denominator
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Empty before any request.
	_, body := getJSON(t, ts.URL+"/v1/progress")
	if got := body["in_flight"].([]any); len(got) != 0 {
		t.Fatalf("idle server reports in-flight runs: %v", got)
	}

	// The hook runs on the optimize handler's goroutine; the channel hands
	// what it read to the test.
	type read struct {
		body map[string]any
		err  error
	}
	reads := make(chan read, 1)
	var once sync.Once
	srv.progress.hooks.OnProgress = func(int64, int64) {
		once.Do(func() {
			var r read
			resp, err := http.Get(ts.URL + "/v1/progress")
			if r.err = err; err == nil {
				r.err = json.NewDecoder(resp.Body).Decode(&r.body)
				resp.Body.Close()
			}
			reads <- r
		})
	}
	data, _ := json.Marshal(OptimizeRequest{Catalog: "tpch", SQL: heavySQL, Level: "high"})
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %s", resp.Status)
	}
	var r read
	select {
	case r = <-reads:
	default:
		t.Fatal("the compile never reached its progress hook")
	}
	if r.err != nil {
		t.Fatalf("progress read from the hook: %v", r.err)
	}
	runs := r.body["in_flight"].([]any)
	if len(runs) != 1 {
		t.Fatalf("progress during the compile lists %d runs, want 1: %v", len(runs), runs)
	}
	seen := runs[0].(map[string]any)
	if seen["catalog"] != "tpch" || seen["level"] != "high" {
		t.Errorf("progress entry: %v", seen)
	}
	if seen["generated"].(float64) <= 0 {
		t.Errorf("progress entry shows no generated plans: %v", seen)
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

	_, body = getJSON(t, ts.URL+"/v1/progress")
	if got := body["in_flight"].([]any); len(got) != 0 {
		t.Fatalf("progress entries leaked after completion: %v", got)
	}

	// The per-stage counters surfaced in /metrics too.
	_, m := getJSON(t, ts.URL+"/metrics")
	stages := m["stages"].(map[string]any)
	if stages["parse"].(map[string]any)["count"].(float64) < 1 {
		t.Errorf("parse stage uncounted: %v", stages)
	}
	if stages["generate"].(map[string]any)["count"].(float64) <= 0 {
		t.Errorf("generate stage uncounted: %v", stages)
	}
	// Generation and pruning are counted, not timed apart: their time is in
	// enumeration's, and neither /metrics nor /v1/progress reports one.
	for name, st := range map[string]map[string]any{"metrics": stages, "progress": seen["stages"].(map[string]any)} {
		for stage, fields := range st {
			_, timed := fields.(map[string]any)["time_us"]
			if want := stage == "parse" || stage == "enumerate"; timed != want {
				t.Errorf("%s stage %s reports time_us: %v, want %v", name, stage, timed, want)
			}
		}
	}
}

func TestServerBudgetAbortDowngrades(t *testing.T) {
	srv := New(Config{Workers: 2, Downgrade: true, BudgetFactor: 0.02, Models: seeded(testModel(1e-9))})
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
	srv := New(Config{Workers: 2, BudgetFactor: 0.02, Models: seeded(testModel(1e-9))})
	_, err := srv.Optimize(context.Background(), OptimizeRequest{Catalog: "tpch", SQL: tpchQ6})
	if !errors.Is(err, optctx.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
