package enum_test

import (
	"fmt"
	"testing"

	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/memo"
	"cote/internal/opt"
	"cote/internal/workload"
)

// TestComposedSidesWorkloads runs the composed-sides oracle over every
// block of the real1, real2, TPC-H and random workloads at every level that
// enumerates, with the estimator's and the compiler's cardinality models
// (they may create different entries through the Cartesian heuristic). The
// workloads run in parallel on shared blocks, each with its own MEMO, as
// pooled estimates and compiles do.
func TestComposedSidesWorkloads(t *testing.T) {
	for _, w := range []*workload.Workload{workload.Real1(1), workload.Real2(1), workload.TPCH(1), workload.Random(42, 12, 10, 1)} {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			mem := memo.New(0)
			for _, q := range w.Queries {
				for _, blk := range q.Block.Blocks() {
					for lvl := opt.LevelMediumLeftDeep; lvl < opt.NumLevels; lvl++ {
						for _, mode := range []cost.Mode{cost.Simple, cost.Full} {
							mem.Reset(blk.NumTables())
							if _, err := enum.New(blk, mem, cost.NewEstimator(blk, mode), lvl.EnumOptions()).Run(enum.Hooks{}); err != nil {
								t.Fatalf("%s/%s at %v: %v", q.Name, blk.Name, lvl, err)
							}
							enum.CheckComposedEntries(t, fmt.Sprintf("%s/%s at %v, mode %v", q.Name, blk.Name, lvl, mode), blk, mem, false)
						}
					}
				}
			}
		})
	}
}
