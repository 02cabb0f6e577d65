// Cancellation contract of the execution context: an expired or cancelled
// context stops an in-flight compile promptly at enumeration granularity (no
// plan is half-committed, no goroutine is left behind), a generated-plan
// budget aborts with ErrBudgetExceeded, and an unexpired context changes
// nothing — OptimizeCtx(Background) is bit-identical to Optimize. Run under
// -race this file doubles as the race gate for the cancellation paths.
package cote_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cote"
	"cote/internal/cost"
	"cote/internal/experiments"
	"cote/internal/opt"
	"cote/internal/testutil"
	"cote/internal/workload"
)

// fingerprint captures everything a compile produces that must not depend on
// how it was driven. Wall-clock fields are deliberately excluded.
type fingerprint struct {
	planString string
	cost       float64
	rows       float64
	blocks     string // per-block enum stats, plan counts, memo sizes
}

func fingerprintOf(res *opt.Result) fingerprint {
	blocks := ""
	for _, b := range res.Blocks {
		blocks += fmt.Sprintf("[%s: joins=%d pairs=%d entries=%d gen=%v access=%d enforcer=%d pilot=%d memoplans=%d memoentries=%d]",
			b.Block.Name, b.EnumStats.Joins, b.EnumStats.Pairs, b.EnumStats.Entries,
			b.Counters.Generated, b.Counters.AccessPlans, b.Counters.EnforcerPlans,
			b.Counters.PilotPruned, b.Memo.NumPlans(), b.Memo.NumEntries())
	}
	return fingerprint{
		planString: res.Plan.String(),
		cost:       res.Plan.Cost,
		rows:       res.Plan.Card,
		blocks:     blocks,
	}
}

// heavyQuery is the 14-table, 3-view real2 query — the longest compile in the
// built-in workloads at the experiments level (~tens of ms), long enough that
// a cancellation arriving early must visibly cut it short.
func heavyQuery() workload.Query {
	return workload.Real2(4).Queries[7]
}

func TestCancelledContextStopsOptimize(t *testing.T) {
	q := heavyQuery()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the compile must stop at its first check
	start := time.Now()
	res, err := opt.OptimizeCtx(ctx, q.Block, opt.Options{Level: experiments.Level, Config: cost.Parallel4})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (res=%v)", err, res != nil)
	}
	// Generous bound: a full compile is ~tens of ms, so even a slow CI
	// machine returns orders of magnitude inside this if cancellation
	// short-circuits the work at all.
	if elapsed > 2*time.Second {
		t.Errorf("took %v to notice a pre-cancelled context", elapsed)
	}
}

// TestMidFlightCancelStopsOptimize cancels from the compile's first progress
// tick, so the cancel lands while plans are being generated whatever the
// machine's speed, and the compile must stop with the context's error.
func TestMidFlightCancelStopsOptimize(t *testing.T) {
	q := heavyQuery()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	oc := cote.NewExecContext(ctx).WithHooks(cote.ExecHooks{
		OnProgress: func(int64, int64) { cancel() },
	})
	_, err := cote.OptimizeWith(oc, q.Block, cote.OptimizeOptions{Level: experiments.Level, Config: cote.Parallel4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if gen, _ := oc.Progress(); gen == 0 {
		t.Fatal("the compile was cancelled before it generated a plan")
	}
}

// TestCancelledContextStopsEstimate covers the estimate path's cancellation
// polls: an already-expired context must stop the run before it enumerates.
func TestCancelledContextStopsEstimate(t *testing.T) {
	q := heavyQuery()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := cote.EstimatePlansCtx(ctx, q.Block, cote.EstimateOptions{Level: experiments.Level})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("took %v to notice a pre-cancelled context", elapsed)
	}
}

// TestMidFlightCancelStopsEstimate cancels while the enumeration is in
// flight; a hung estimate here means a scan loop lost its poll.
func TestMidFlightCancelStopsEstimate(t *testing.T) {
	q := heavyQuery()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Loop so the enumeration is actually running when the cancel
		// lands (a single estimate is only a few hundred microseconds).
		for ctx.Err() == nil {
			if _, err := cote.EstimatePlansCtx(ctx, q.Block, cote.EstimateOptions{Level: experiments.Level}); err != nil {
				done <- err
				return
			}
		}
		done <- ctx.Err()
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("estimate did not return after cancel")
	}
}

func TestDeadlineStopsOptimize(t *testing.T) {
	q := heavyQuery()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := opt.OptimizeCtx(ctx, q.Block, opt.Options{Level: experiments.Level, Config: cost.Parallel4})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("compile finished inside the 2ms deadline; machine too fast for this probe")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("took %v to honor a 2ms deadline", elapsed)
	}
}

// TestCancelLeavesNoGoroutines: a compile cancelled mid-flight must not leave
// a goroutine behind. The shared guard GC-retries the count comparison
// because the runtime retires goroutines asynchronously.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	testutil.CheckGoroutines(t)
	q := heavyQuery()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, _ = opt.OptimizeCtx(ctx, q.Block, opt.Options{Level: experiments.Level, Config: cost.Parallel4})
		cancel()
	}
}

// TestOptimizeCtxBackgroundIsDeterministic: an execution context that never
// fires must be invisible — same fingerprint as the plain entry point.
func TestOptimizeCtxBackgroundIsDeterministic(t *testing.T) {
	q := heavyQuery()
	opts := opt.Options{Level: experiments.Level, Config: cost.Parallel4}
	plain, err := opt.Optimize(q.Block, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := opt.OptimizeCtx(context.Background(), q.Block, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprintOf(ctxed), fingerprintOf(plain); got != want {
		t.Errorf("OptimizeCtx(Background) diverges from Optimize:\n got %+v\nwant %+v", got, want)
	}
}

func TestPlanBudgetAborts(t *testing.T) {
	q := heavyQuery()
	oc := cote.NewExecContext(context.Background())
	oc.SetPlanBudget(100) // the query generates thousands of join plans
	_, err := cote.OptimizeWith(oc, q.Block, cote.OptimizeOptions{Level: experiments.Level, Config: cote.Parallel4})
	if !errors.Is(err, cote.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	gen, _ := oc.Progress()
	if gen <= 100 {
		t.Errorf("generated counter %d; expected it to pass the budget before tripping", gen)
	}
}

// TestProgressMeter: with a predicted total installed, OnProgress observes a
// monotonically nondecreasing generated count and the final count matches the
// compile's own counters (join plans only; access/enforcer plans tick outside
// the per-join hook).
func TestProgressMeter(t *testing.T) {
	q := heavyQuery()
	var last int64
	mono := true
	oc := cote.NewExecContext(context.Background()).WithHooks(cote.ExecHooks{
		OnProgress: func(generated, predicted int64) {
			if generated < last {
				mono = false
			}
			last = generated
		},
	})
	oc.SetPredictedPlans(1_000_000)
	res, err := cote.OptimizeWith(oc, q.Block, cote.OptimizeOptions{Level: experiments.Level, Config: cote.Parallel4})
	if err != nil {
		t.Fatal(err)
	}
	if !mono {
		t.Error("OnProgress saw a decreasing generated count")
	}
	if last == 0 {
		t.Fatal("OnProgress never fired")
	}
	var joinGen int64
	for _, n := range res.TotalCounters().Generated {
		joinGen += int64(n)
	}
	gen, pred := oc.Progress()
	if pred != 1_000_000 {
		t.Errorf("predicted = %d, want the installed 1000000", pred)
	}
	if gen != joinGen {
		t.Errorf("final generated counter %d, compile generated %d join plans", gen, joinGen)
	}
}
