// Allocation-regression guards for the two headline paths. The plan arena,
// property interning and scratch-buffer reuse cut the real compile's
// allocations by ~70%; these tests pin that improvement so an accidental
// per-plan or per-join allocation cannot creep back in unnoticed. Ceilings
// sit ~20% above current measurements — loose enough for toolchain drift,
// tight enough that reverting any one optimization trips them.
package cote_test

import (
	"testing"

	"cote/internal/core"
	"cote/internal/experiments"
	"cote/internal/opt"
	"cote/internal/testutil"
	"cote/internal/workload"
)

// Measured 2026-08: optimize ~3.0k allocs (was ~10.8k before the arena),
// estimate ~5.7k.
const (
	maxOptimizeAllocs = 3700
	maxEstimateAllocs = 6900
)

// optimizeAllocsBeforeHitMemo is the headline compile's exact count at the
// commit before the buffer-model memo (3062; 2953 with it, the flat Equiv
// saving one allocation per MEMO entry). The memo is a fixed array inside
// the pooled generator scratch, so once the pool is warm it must add none.
const optimizeAllocsBeforeHitMemo = 3062

func TestOptimizeAllocsReal2Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short")
	}
	q := workload.Real2(1).Queries[7] // the 14-table, 3-view query
	avg := testing.AllocsPerRun(5, func() {
		if _, err := opt.Optimize(q.Block, opt.Options{Level: experiments.Level}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxOptimizeAllocs {
		t.Errorf("Optimize(real2 headline) = %.0f allocs/op, want <= %d — a per-plan allocation crept back in", avg, maxOptimizeAllocs)
	}
	// sync.Pool drops puts under -race, so only the loose ceiling holds there.
	if !testutil.RaceEnabled && avg > optimizeAllocsBeforeHitMemo {
		t.Errorf("Optimize(real2 headline) = %.0f allocs/op, above the %d it took before join costing was memoized", avg, optimizeAllocsBeforeHitMemo)
	}
}

func TestEstimatePlansAllocsReal2Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short")
	}
	q := workload.Real2(1).Queries[7]
	avg := testing.AllocsPerRun(5, func() {
		if _, err := core.EstimatePlans(q.Block, core.Options{Level: experiments.Level}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxEstimateAllocs {
		t.Errorf("EstimatePlans(real2 headline) = %.0f allocs/op, want <= %d", avg, maxEstimateAllocs)
	}
}
