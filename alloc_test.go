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

// Measured 2026-10: optimize 2,237 allocs (was ~10.8k before the plan
// arena), estimate 28 — seven per block of the four-block query: the result,
// the enumerator, the block list. It was 292 while the
// cardinality estimator, the scope, the counter, the interned merge orders
// and the base-table order lists were built per block, and 776 before a MEMO
// entry's equivalence came from the MEMO's arena.
const (
	maxOptimizeAllocs = 3700
	maxEstimateAllocs = 32
)

// maxEstimateClique10Allocs bounds one estimate shaped like the benchmark's
// cold_dense requests, only larger: a 10-table clique, 1,023 MEMO entries,
// on a warm workspace pool. Measured 7, the same seven a 3-table chain
// costs: nothing is allocated per table, per entry or per stored order. It
// was 1,451 while merge orders were interned through a map and base-table
// order lists were built per table, and 11,699 when every entry allocated
// its equivalence and its crossing-predicate slice.
const maxEstimateClique10Allocs = 8

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
	limit := maxEstimateAllocs
	if testutil.RaceEnabled {
		// sync.Pool drops puts under -race: a run whose workspace was
		// dropped builds MEMO, slab, arenas and scratch anew.
		limit = 750
	}
	if avg > float64(limit) {
		t.Errorf("EstimatePlans(real2 headline) = %.0f allocs/op, want <= %d", avg, limit)
	}
}

func TestEstimatePlansAllocsClique10(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short")
	}
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops puts under -race, so the workspace pool never warms")
	}
	q := workload.Clique(1).Queries[4] // clique_n10_p1
	if q.Block.NumTables() != 10 {
		t.Fatalf("%s has %d tables, want the 10-table clique", q.Name, q.Block.NumTables())
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := core.EstimatePlans(q.Block, core.Options{Level: opt.LevelHigh}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxEstimateClique10Allocs {
		t.Errorf("EstimatePlans(10-table clique, warm pool) = %.0f allocs/op, want <= %d — a per-entry allocation crept back in", avg, maxEstimateClique10Allocs)
	}
}
