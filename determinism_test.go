// Parallel-vs-serial determinism: the parallel DP driver must be an exact
// drop-in for the serial enumerator. Generation order may differ across
// workers, but commits replay in the canonical enumeration order, so every
// observable outcome — enumeration statistics, per-method generated-plan
// counts (the paper's target quantity), retained plan counts, the chosen
// plan and its cost — must be bit-identical. This test sweeps every built-in
// workload (serial and 4-node parallel costing) across the DP levels and
// several parallelism degrees and compares each parallel run against the
// serial baseline. Run under -race it doubles as the data-race gate for the
// generate/commit split.
package cote_test

import (
	"fmt"
	"runtime"
	"testing"

	"cote/internal/cost"
	"cote/internal/experiments"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/workload"
)

// fingerprint captures everything a compile produces that must not depend on
// the parallelism degree. Wall-clock fields are deliberately excluded.
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

// determinismWorkloads pairs each built-in workload with serial and 4-node
// parallel costing — partition properties multiply the plan space, so the
// parallel-cost variants are the harder determinism target.
type namedWorkload struct {
	name string
	wl   *workload.Workload
	cfg  *cost.Config
}

func determinismWorkloads() []namedWorkload {
	return []namedWorkload{
		{"linear_s", workload.Linear(1), cost.Serial},
		{"linear_p", workload.Linear(4), cost.Parallel4},
		{"star_s", workload.Star(1), cost.Serial},
		{"star_p", workload.Star(4), cost.Parallel4},
		{"random_s", workload.Random(42, 12, 10, 1), cost.Serial},
		{"random_p", workload.Random(42, 12, 10, 4), cost.Parallel4},
		{"real1_s", workload.Real1(1), cost.Serial},
		{"real1_p", workload.Real1(4), cost.Parallel4},
		{"real2_s", workload.Real2(1), cost.Serial},
		{"real2_p", workload.Real2(4), cost.Parallel4},
		{"tpch_s", workload.TPCH(1), cost.Serial},
		{"tpch_p", workload.TPCH(4), cost.Parallel4},
	}
}

func TestParallelOptimizeMatchesSerial(t *testing.T) {
	degrees := []int{2, runtime.GOMAXPROCS(0)}
	if degrees[1] <= 2 {
		// Single- or dual-core machine: still exercise a wider fan-out so
		// the worker claiming/replay logic sees more than two segments.
		degrees[1] = 4
	}
	levels := []opt.Level{opt.LevelMediumLeftDeep, opt.LevelMediumZigZag, opt.LevelHighInner2}
	stride := 1
	if testing.Short() {
		// Subsample for -short (and keep -race CI runs tractable): one
		// degree, the two extreme levels, every third query.
		degrees = degrees[1:]
		levels = []opt.Level{opt.LevelMediumLeftDeep, opt.LevelHighInner2}
		stride = 3
	}

	for _, nw := range determinismWorkloads() {
		name, cfg := nw.name, nw.cfg
		for qi, q := range nw.wl.Queries {
			if qi%stride != 0 {
				continue
			}
			qlevels := levels
			if q.Block.NumTables() <= 7 && !testing.Short() {
				// Unrestricted bushy DP is exponential in entries; confine it
				// to the small queries where it stays cheap.
				qlevels = append(append([]opt.Level(nil), levels...), opt.LevelHigh)
			}
			for _, level := range qlevels {
				serialRes, err := opt.Optimize(q.Block, opt.Options{Level: level, Config: cfg})
				if err != nil {
					t.Fatalf("%s/%s level=%v serial: %v", name, q.Name, level, err)
				}
				want := fingerprintOf(serialRes)
				for _, p := range degrees {
					res, err := opt.Optimize(q.Block, opt.Options{Level: level, Config: cfg, Parallelism: p})
					if err != nil {
						t.Fatalf("%s/%s level=%v parallelism=%d: %v", name, q.Name, level, p, err)
					}
					got := fingerprintOf(res)
					if got != want {
						t.Errorf("%s/%s level=%v parallelism=%d diverges from serial:\n got %+v\nwant %+v",
							name, q.Name, level, p, got, want)
					}
				}
			}
		}
	}
}

// TestParallelPilotPassMatchesSerial covers the order-sensitive pilot-bound
// path: the bound's "never prune the only plan" and dominated-anyway
// accounting read the partially built plan list, so they only stay identical
// because commits replay in canonical order.
func TestParallelPilotPassMatchesSerial(t *testing.T) {
	wl := workload.Real1(1)
	for _, q := range wl.Queries {
		base := opt.Options{Level: experiments.Level, Config: cost.Serial, PilotPass: true}
		serialRes, err := opt.Optimize(q.Block, base)
		if err != nil {
			t.Fatalf("%s serial: %v", q.Name, err)
		}
		want := fingerprintOf(serialRes)
		par := base
		par.Parallelism = 4
		res, err := opt.Optimize(q.Block, par)
		if err != nil {
			t.Fatalf("%s parallel: %v", q.Name, err)
		}
		if got := fingerprintOf(res); got != want {
			t.Errorf("%s pilot-pass parallel diverges:\n got %+v\nwant %+v", q.Name, got, want)
		}
	}
}

// TestParallelCountersSumExactly pins the counter-merge contract: per-method
// generated counts are the estimator's ground truth (Figure 5), so worker
// merging must not lose or double-count a single plan.
func TestParallelCountersSumExactly(t *testing.T) {
	wl := workload.Real2(4)
	q := wl.Queries[7] // the 14-table, 3-view query
	serialRes, err := opt.Optimize(q.Block, opt.Options{Level: experiments.Level, Config: cost.Parallel4})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := opt.Optimize(q.Block, opt.Options{Level: experiments.Level, Config: cost.Parallel4, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc, pc := serialRes.TotalCounters(), parRes.TotalCounters()
	for m := 0; m < int(props.NumJoinMethods); m++ {
		if sc.Generated[m] != pc.Generated[m] {
			t.Errorf("method %d: serial generated %d, parallel %d", m, sc.Generated[m], pc.Generated[m])
		}
	}
	if sc.AccessPlans != pc.AccessPlans || sc.EnforcerPlans != pc.EnforcerPlans || sc.PilotPruned != pc.PilotPruned {
		t.Errorf("auxiliary counts diverge: serial %+v parallel %+v", sc, pc)
	}
}
