package opt

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"cote/internal/cost"
	"cote/internal/plangen"
	"cote/internal/props"
	"cote/internal/testutil"
	"cote/internal/workload"
)

// timingFree is what a compile produced, with the timers left out: the final
// plan and its cost, every counter, the plans the MEMOs kept and the durable
// peak.
type timingFree struct {
	plan        string
	costBits    uint64
	generated   [props.NumJoinMethods]int
	access      int
	enforcers   int
	pilotPruned int
	kept        int
	durablePeak int64
}

func timingFreeOf(res *Result) timingFree {
	c := res.TotalCounters()
	out := timingFree{
		plan:        res.Plan.String(),
		costBits:    math.Float64bits(res.Plan.Cost),
		generated:   c.Generated,
		access:      c.AccessPlans,
		enforcers:   c.EnforcerPlans,
		pilotPruned: c.PilotPruned,
		durablePeak: res.Resources.DurablePeakBytes,
	}
	for _, b := range res.Blocks {
		out.kept += b.Memo.NumPlans()
	}
	return out
}

// TestUntimedCompileMatchesTimed holds an untimed compile to the timed one on
// every query of the synthetic, real, TPC-H and random workloads, at inner2
// and high, serial and 4-node, with and without the pilot pass: the same
// plan, cost, counters, kept plans and durable peak. An untimed compile has
// no time in any timer; a timed one has generation time for every join
// method that generated plans. -race and -short leave out the 4-node linear
// and star workloads: they take half a minute even without the detector.
func TestUntimedCompileMatchesTimed(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		cfg := cost.Serial
		if nodes > 1 {
			cfg = cost.Parallel4
		}
		wls := []*workload.Workload{
			workload.Real1(nodes), workload.Real2(nodes), workload.TPCH(nodes),
			workload.Random(1, 40, 9, nodes),
		}
		if nodes == 1 || (!testutil.RaceEnabled && !testing.Short()) {
			wls = append(wls, workload.Linear(nodes), workload.Star(nodes))
		}
		for _, w := range wls {
			// Each workload × nodes case compiles its own blocks, so the
			// cases run in parallel.
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				for _, level := range []Level{LevelHighInner2, LevelHigh} {
					for _, pilot := range []bool{false, true} {
						for _, q := range w.Queries {
							name := fmt.Sprintf("%s/%v/pilot=%v", q.Name, level, pilot)
							opts := Options{Level: level, Config: cfg, PilotPass: pilot}
							untimed := compileFor(t, name, q, opts)
							opts.Timed = true
							timed := compileFor(t, name, q, opts)
							if got, want := timingFreeOf(untimed), timingFreeOf(timed); got != want {
								t.Errorf("%s: untimed %+v, timed %+v", name, got, want)
							}
							checkUntimed(t, name, untimed.TotalCounters())
							checkTimed(t, name, timed.TotalCounters())
							untimed.Release()
							timed.Release()
						}
					}
				}
			})
		}
	}
}

func compileFor(t *testing.T, name string, q workload.Query, opts Options) *Result {
	t.Helper()
	res, err := OptimizeCtx(context.Background(), q.Block, opts)
	if err != nil {
		t.Fatalf("%s timed=%v: %v", name, opts.Timed, err)
	}
	return res
}

func checkUntimed(t *testing.T, name string, c plangen.Counters) {
	t.Helper()
	if c.GenTime != [props.NumJoinMethods]time.Duration{} || c.SaveTime != 0 || c.AccessTime != 0 {
		t.Errorf("%s: untimed compile has timers GenTime %v, SaveTime %v, AccessTime %v", name, c.GenTime, c.SaveTime, c.AccessTime)
	}
}

func checkTimed(t *testing.T, name string, c plangen.Counters) {
	t.Helper()
	for m := props.JoinMethod(0); m < props.NumJoinMethods; m++ {
		if c.Generated[m] > 0 && c.GenTime[m] <= 0 {
			t.Errorf("%s: timed compile generated %d %v plans in %v", name, c.Generated[m], m, c.GenTime[m])
		}
	}
}
