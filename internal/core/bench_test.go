package core

import (
	"math/rand"
	"testing"

	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/query"
	"cote/internal/sqlparser"
	"cote/internal/testutil"
)

// benchShapeBlock is the block a benchmark-style request of the given shape
// and table count reaches the estimator as: parsed from one spelling over
// the benchmark-shaped catalog, then rebuilt in canonical form, as the
// service does on a cache miss.
func benchShapeBlock(tb testing.TB, kind string, n int) *query.Block {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	sql := testutil.BenchSQL(rng, kind, rng.Perm(testutil.BenchTables)[:n])
	blk, err := sqlparser.Parse(sql, testutil.BenchCatalog())
	if err != nil {
		tb.Fatal(err)
	}
	canon, err := fingerprint.Analyze(blk).Canonical()
	if err != nil {
		tb.Fatal(err)
	}
	return canon
}

var sinkEstimate *Estimate

// benchEstimateShape times one estimate of a benchmark-shaped block at
// LevelHigh on a warm workspace pool; TestEstimatePlansAllocsBenchShapes
// pins its allocation count.
func benchEstimateShape(b *testing.B, kind string, n int) {
	blk := benchShapeBlock(b, kind, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := EstimatePlans(blk, Options{Level: opt.LevelHigh})
		if err != nil {
			b.Fatal(err)
		}
		sinkEstimate = est
	}
}

func BenchmarkEstimateBenchChain10(b *testing.B) { benchEstimateShape(b, "chain", 10) }
func BenchmarkEstimateBenchStar9(b *testing.B)   { benchEstimateShape(b, "star", 9) }
func BenchmarkEstimateBenchClique6(b *testing.B) { benchEstimateShape(b, "clique", 6) }

// TestEstimatePlansAllocsBenchShapes pins what an estimate allocates once
// the workspace pool is warm, on the four shapes the repository benchmark's
// misses are made of: its result, the enumerator and the block list, nothing
// per block, per table, per entry or per join. Measured 3 allocations and
// 200 B on every shape with go1.24.0 (5 and 304 B while the block also built
// a per-block result and a slice of them; 124 / 110 / 221 / 321 allocations
// and 8.5 / 23.0 / 26.6 / 49.8 KB before the workspace: an order interner
// regrowing from empty, a cardinality map duplicating Entry.Card, a map and
// a slice per base-table order). The count ceiling is exact: one more
// allocation fails. The calls are measured warm with the GC held off: a collection
// between calls once emptied the pool and moved star-9 to 526 B.
func TestEstimatePlansAllocsBenchShapes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops puts under -race, so the workspace pool never warms")
	}
	for _, c := range []struct {
		kind string
		n    int
	}{{"chain", 10}, {"star", 9}, {"clique", 6}, {"clique", 7}} {
		blk := benchShapeBlock(t, c.kind, c.n)
		a, by := testutil.AllocsWithoutGC(100, func() {
			if _, err := EstimatePlans(blk, Options{Level: opt.LevelHigh}); err != nil {
				t.Fatal(err)
			}
		})
		if a > 3 || by > 256 {
			t.Errorf("EstimatePlans(%s-%d, warm pool) = %.2f allocs/op, %.0f B/op, want <= 3 and <= 256", c.kind, c.n, a, by)
		}
	}
}
