package opt

import (
	"testing"

	"cote/internal/cost"
	"cote/internal/props"
	"cote/internal/testutil"
	"cote/internal/workload"
)

// TestStopwatchCountsEachNanosecondOnce holds the Figure 2 timers to what the
// lap clock promises on every block of the synthetic and real workloads, at
// the experiments' level, serial and parallel, with and without the pilot
// pass: the generation, saving and access timers are disjoint slices of the
// block's wall time (so Breakdown's "other" is never negative), a join
// method has time exactly when it generated plans, and every block saved
// plans. -race and -short keep the real workloads only: the synthetic ones
// take seconds even without the detector.
func TestStopwatchCountsEachNanosecondOnce(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		cfg := cost.Serial
		if nodes > 1 {
			cfg = cost.Parallel4
		}
		wls := []*workload.Workload{workload.Real1(nodes), workload.Real2(nodes), workload.TPCH(nodes)}
		if !testutil.RaceEnabled && !testing.Short() {
			wls = append(wls, workload.Linear(nodes), workload.Star(nodes))
		}
		for _, w := range wls {
			for _, pilot := range []bool{false, true} {
				for _, q := range w.Queries {
					res, err := Optimize(q.Block, Options{Level: LevelHighInner2, Config: cfg, PilotPass: pilot, Timed: true})
					if err != nil {
						t.Fatalf("%s pilot=%v: %v", q.Name, pilot, err)
					}
					for i, br := range res.Blocks {
						checkStopwatch(t, q.Name, pilot, i, br)
					}
				}
			}
		}
	}
}

func checkStopwatch(t *testing.T, query string, pilot bool, block int, br *BlockResult) {
	t.Helper()
	c := &br.Counters
	timed := c.SaveTime + c.AccessTime
	for m := props.JoinMethod(0); m < props.NumJoinMethods; m++ {
		timed += c.GenTime[m]
		if (c.GenTime[m] > 0) != (c.Generated[m] > 0) {
			t.Errorf("%s pilot=%v block %d: %v GenTime %v for %d generated plans", query, pilot, block, m, c.GenTime[m], c.Generated[m])
		}
	}
	if timed > br.Elapsed {
		t.Errorf("%s pilot=%v block %d: timers sum to %v, more than the block's %v", query, pilot, block, timed, br.Elapsed)
	}
	if c.SaveTime <= 0 {
		t.Errorf("%s pilot=%v block %d: SaveTime %v", query, pilot, block, c.SaveTime)
	}
}
