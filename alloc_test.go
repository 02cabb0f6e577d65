// Allocation-regression guards for the two headline paths. The plan arena,
// property interning and scratch-buffer reuse cut the real compile's
// allocations by ~70%; these tests pin that improvement so an accidental
// per-plan or per-join allocation cannot creep back in unnoticed. Ceilings
// sit ~20% above current measurements — loose enough for toolchain drift,
// tight enough that reverting any one optimization trips them.
package cote_test

import (
	"math/rand"
	"testing"

	"cote/internal/core"
	"cote/internal/experiments"
	"cote/internal/opt"
	"cote/internal/sqlparser"
	"cote/internal/testutil"
	"cote/internal/workload"
)

// Measured 2026-10: optimize 49 allocs released on a warm pool, 186
// unreleased; estimate 28 — seven per block of the four-block query: the
// result, the enumerator, the block list. A released compile keeps what is
// left per block: its BlockResult, the enumerator, the full-mode
// histograms; an unreleased one also builds each block's MEMO. The
// unreleased ceiling is the one every compile had before the compile
// workspace (336 then): a caller that never releases pays no more. The
// compile was ~10.8k before the plan arena and 2,245 while plan generation
// timed each method call with a closure and each plan with two clock reads,
// the cardinality estimator built a predicate slice per table set and entry
// plan lists grew by append. The estimate was 292 while the cardinality
// estimator, the scope, the counter, the interned merge orders and the
// base-table order lists were built per block, and 776 before a MEMO entry's
// equivalence came from the MEMO's arena.
const (
	maxOptimizeAllocs         = 400
	maxOptimizeReleasedAllocs = 59
	maxEstimateAllocs         = 32
)

// maxEstimateClique10Allocs bounds one estimate shaped like the benchmark's
// cold_dense requests, only larger: a 10-table clique, 1,023 MEMO entries,
// on a warm workspace pool. Measured 7, the same seven a 3-table chain
// costs: nothing is allocated per table, per entry or per stored order. It
// was 1,451 while merge orders were interned through a map and base-table
// order lists were built per table, and 11,699 when every entry allocated
// its equivalence and its crossing-predicate slice.
const maxEstimateClique10Allocs = 8

func TestOptimizeAllocsReal2Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short")
	}
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops puts under -race, so the workspace pool never warms")
	}
	q := workload.Real2(1).Queries[7] // the 14-table, 3-view query
	for _, c := range []struct {
		name     string
		release  bool
		maxAlloc float64
	}{{"released", true, maxOptimizeReleasedAllocs}, {"unreleased", false, maxOptimizeAllocs}} {
		avg := testing.AllocsPerRun(5, func() {
			res, err := opt.Optimize(q.Block, opt.Options{Level: experiments.Level})
			if err != nil {
				t.Fatal(err)
			}
			if c.release {
				res.Release()
			}
		})
		if avg > c.maxAlloc {
			t.Errorf("Optimize(real2 headline), %s = %.0f allocs/op, want <= %.0f — a per-plan or per-join allocation crept back in", c.name, avg, c.maxAlloc)
		}
	}
}

// TestOptimizeAllocsBenchShapes pins what a compile shaped like the
// benchmark's compile requests allocates (LevelHigh over the benchmark
// catalog, a parsed spelling), released as the service releases it and
// unreleased. Measured 8 / 8 / 9 allocations released, 48 / 70 / 71
// unreleased, whose ceilings stay those of 98 / 121 / 141 before the compile
// workspace; 600 / 1,827 / 1,524 before the plan generator's lap clock,
// batched commits and arena-carved plan lists.
func TestOptimizeAllocsBenchShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short")
	}
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops puts under -race, so the workspace pool never warms")
	}
	for _, c := range []struct {
		kind                 string
		n                    int
		released, unreleased float64
	}{{"chain", 7, 10, 118}, {"star", 7, 10, 146}, {"chain", 10, 11, 170}} {
		rng := rand.New(rand.NewSource(int64(c.n)))
		blk, err := sqlparser.Parse(testutil.BenchSQL(rng, c.kind, rng.Perm(testutil.BenchTables)[:c.n]), testutil.BenchCatalog())
		if err != nil {
			t.Fatal(err)
		}
		for _, release := range []bool{true, false} {
			avg := testing.AllocsPerRun(5, func() {
				res, err := opt.Optimize(blk, opt.Options{Level: opt.LevelHigh})
				if err != nil {
					t.Fatal(err)
				}
				if release {
					res.Release()
				}
			})
			limit := c.unreleased
			if release {
				limit = c.released
			}
			if avg > limit {
				t.Errorf("Optimize(%s-%d), release=%v = %.0f allocs/op, want <= %.0f — a per-plan or per-join allocation crept back in", c.kind, c.n, release, avg, limit)
			}
		}
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
