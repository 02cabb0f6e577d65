// Resource-accounting integration tests: the durable high-water mark is a
// deterministic property of the query and level — bit-identical across pool
// states, repeated runs and concurrent compiles — and the accounting layer
// itself costs nothing on the estimate hot path.
package cote_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cote/internal/core"
	"cote/internal/experiments"
	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/testutil"
	"cote/internal/workload"
)

// TestDurablePeakDeterministicAcrossRuns pins the pooled-reuse contract at
// the integration level: recompiling the same query must measure the exact
// same durable peak every time. A MEMO or scratch that carried accounting
// state through the pool (or charged pooled buffers twice) would drift run
// over run. Scratch is excluded from that contract, but it must have been
// charged: a total peak no higher than the durable one means the plan
// generator's arena and buffers ran unaccounted.
func TestDurablePeakDeterministicAcrossRuns(t *testing.T) {
	for _, q := range workload.Real1(1).Queries[:4] {
		var first int64
		for run := 0; run < 3; run++ {
			res, err := opt.OptimizeCtx(context.Background(), q.Block, opt.Options{Level: experiments.Level})
			if err != nil {
				t.Fatal(err)
			}
			peak := res.Resources.DurablePeakBytes
			if peak <= 0 {
				t.Fatalf("%s: durable peak = %d, want > 0", q.Name, peak)
			}
			if res.Resources.PeakBytes <= peak {
				t.Fatalf("%s: total peak %d <= durable peak %d — scratch uncharged", q.Name, res.Resources.PeakBytes, peak)
			}
			if run == 0 {
				first = peak
			} else if peak != first {
				t.Fatalf("%s: run %d durable peak %d != first run's %d — pooled reuse leaked accounting state",
					q.Name, run, peak, first)
			}
		}
	}
}

// TestParallelDurablePeakMatchesSerial pins the determinism guarantee across
// concurrent compiles: every compile runs the serial driver, but a server's
// worker pool runs many of them at once through the shared MEMO and scratch
// pools. Each goroutine compiles every query in its own rotated order, so
// pooled workspaces pass between different queries, and each result must
// reach the serial durable high-water with its scratch charged. Under -race
// this also checks the pools hand nothing to two compiles at once.
func TestParallelDurablePeakMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel sweep skipped in -short")
	}
	qs := workload.Real1(1).Queries
	want := make([]int64, len(qs))
	for i, q := range qs {
		serial, err := opt.OptimizeCtx(context.Background(), q.Block, opt.Options{Level: experiments.Level})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = serial.Resources.DurablePeakBytes
	}
	for _, workers := range []int{2, 4} {
		errs := make(chan error, 2*workers*len(qs))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range qs {
					i := (k + w*len(qs)/workers) % len(qs)
					res, err := opt.OptimizeCtx(context.Background(), qs[i].Block, opt.Options{Level: experiments.Level})
					if err != nil {
						errs <- err
						continue
					}
					if got := res.Resources.DurablePeakBytes; got != want[i] {
						errs <- fmt.Errorf("%s P=%d: durable peak %d != serial %d", qs[i].Name, workers, got, want[i])
					}
					if res.Resources.PeakBytes <= res.Resources.DurablePeakBytes {
						errs <- fmt.Errorf("%s P=%d: total peak %d <= durable peak %d — scratch uncharged",
							qs[i].Name, workers, res.Resources.PeakBytes, res.Resources.DurablePeakBytes)
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestEstimateMeasuredBytesDeterministic pins the estimate path's measured
// durable bytes: same query, same level, same number — with or without an
// execution context attached, across repeated (pooled) runs — and that
// number itself, on the headline query and the two dense LevelHigh queries
// the root package's estimate benchmarks time.
func TestEstimateMeasuredBytesDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		wl    *workload.Workload
		qi    int
		level opt.Level
		want  int64
	}{
		{"real2-q7", workload.Real2(1), 7, experiments.Level, 20164},
		{"clique-q3", workload.Clique(1), 3, opt.LevelHigh, 86360},
		{"star-q14", workload.Star(1), 14, opt.LevelHigh, 144068},
	} {
		q := tc.wl.Queries[tc.qi]
		base, err := core.EstimatePlans(q.Block, core.Options{Level: tc.level})
		if err != nil {
			t.Fatal(err)
		}
		if base.MeasuredPeakBytes != tc.want {
			t.Errorf("%s: MeasuredPeakBytes = %d, want %d", tc.name, base.MeasuredPeakBytes, tc.want)
		}
		for run := 0; run < 3; run++ {
			est, err := core.EstimatePlansCtx(context.Background(), q.Block, core.Options{Level: tc.level})
			if err != nil {
				t.Fatal(err)
			}
			if est.MeasuredPeakBytes != base.MeasuredPeakBytes {
				t.Fatalf("%s run %d: MeasuredPeakBytes %d != %d", tc.name, run, est.MeasuredPeakBytes, base.MeasuredPeakBytes)
			}
		}
	}
}

// A nil memory model is the structural default, as cote.EstimateMemory and
// experiments.MemFig document: on the headline query it must price exactly
// what DefaultMemModel prices, and so must an estimate run without one.
func TestNilMemModelIsStructuralDefault(t *testing.T) {
	q := workload.Real2(1).Queries[7]
	est, err := core.EstimatePlans(q.Block, core.Options{Level: experiments.Level})
	if err != nil {
		t.Fatal(err)
	}
	want := core.EstimateMemory(est, core.DefaultMemModel())
	if want <= 0 {
		t.Fatalf("default model prices the headline query at %d bytes", want)
	}
	if got := core.EstimateMemory(est, nil); got != want {
		t.Fatalf("EstimateMemory(est, nil) = %d, DefaultMemModel prices %d", got, want)
	}
	if est.PredictedPeakBytes != want {
		t.Fatalf("PredictedPeakBytes without a model = %d, DefaultMemModel prices %d", est.PredictedPeakBytes, want)
	}
}

// TestAccountantAddsNoEstimateAllocs is the alloc guard of the accounting
// layer: arming a run accountant on the headline estimate must add zero
// allocations per run — the Accountant is embedded by value in the execution
// context and every charge site is an atomic add.
func TestAccountantAddsNoEstimateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short")
	}
	if testutil.RaceEnabled {
		t.Skip("alloc guard skipped under -race: the race detector makes sync.Pool drop puts at random, so per-run alloc counts jitter")
	}
	q := workload.Real2(1).Queries[7]
	opts := core.Options{Level: experiments.Level}
	oc := optctx.New(context.Background())
	armed := opts
	armed.Exec = oc
	runBare := func() {
		if _, err := core.EstimatePlans(q.Block, opts); err != nil {
			t.Fatal(err)
		}
	}
	runArmed := func() {
		if _, err := core.EstimatePlans(q.Block, armed); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both paths into pool steady state first: sync.Pool growth and
	// eviction otherwise dominate the per-run delta with noise.
	for i := 0; i < 5; i++ {
		runBare()
		runArmed()
	}
	bare := testing.AllocsPerRun(10, runBare)
	accounted := testing.AllocsPerRun(10, runArmed)
	// The execution context itself may cost a constant handful (created once,
	// not per run — but pool jitter leaks through); the guard is that the
	// per-run accounting adds nothing that scales with the query.
	const slack = 2
	if accounted > bare+slack {
		t.Errorf("accounted estimate = %.0f allocs/op vs %.0f bare — the accountant must be alloc-free on the hot path", accounted, bare)
	}
}
