package fingerprint_test

import (
	"math/rand"
	"testing"

	"cote/internal/fingerprint"
	"cote/internal/query"
	"cote/internal/sqlparser"
	"cote/internal/testutil"
)

// benchChain10 is the block of one benchmark-style chain-10 request.
func benchChain10(tb testing.TB) *query.Block {
	rng := rand.New(rand.NewSource(10))
	sql := testutil.BenchSQL(rng, "chain", rng.Perm(testutil.BenchTables)[:10])
	blk, err := sqlparser.Parse(sql, testutil.BenchCatalog())
	if err != nil {
		tb.Fatal(err)
	}
	return blk
}

var (
	sinkAnalysis fingerprint.Analysis
	sinkBlock    *query.Block
)

// BenchmarkAnalyzeChain10 is the fingerprint step of every request, hit or
// miss.
func BenchmarkAnalyzeChain10(b *testing.B) {
	blk := benchChain10(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkAnalysis = fingerprint.Analyze(blk)
	}
}

// BenchmarkCanonicalChain10 is the rebuild a cache miss adds.
func BenchmarkCanonicalChain10(b *testing.B) {
	a := fingerprint.Analyze(benchChain10(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb, err := a.Canonical()
		if err != nil {
			b.Fatal(err)
		}
		sinkBlock = cb
	}
}

// BenchmarkCanonicalInChain10 is the rebuild a miss adds on the serving
// path: into the request's statement arena.
func BenchmarkCanonicalInChain10(b *testing.B) {
	a := fingerprint.Analyze(benchChain10(b))
	var ar query.Arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		cb, err := a.CanonicalIn(&ar)
		if err != nil {
			b.Fatal(err)
		}
		sinkBlock = cb
	}
}

// TestFingerprintAllocs pins what the fingerprint step and the canonical
// rebuild allocate for a benchmark-style chain-10. Analyze allocates
// nothing: its refinement and encoding scratch is on the stack and the
// encoding is hashed as it is written (9 with heap scratch, 56 before the
// allocation-lean rewrite). The rebuild into a warm statement arena
// allocates nothing either; the frozen heap entry point, Canonical, pays 18
// for a fresh arena's chunks (25 with builder-owned slabs, 324 before). Every ceiling is the count measured with go1.24.0,
// with the GC held off for the measured calls, so one more allocation fails.
func TestFingerprintAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race changes allocation counts")
	}
	blk := benchChain10(t)
	if got, _ := testutil.AllocsWithoutGC(20, func() { fingerprint.Analyze(blk) }); got > 0 {
		t.Errorf("Analyze(chain-10) = %.2f allocs, want 0", got)
	}
	a := fingerprint.Analyze(blk)
	heap, _ := testutil.AllocsWithoutGC(20, func() {
		if _, err := a.Canonical(); err != nil {
			t.Fatal(err)
		}
	})
	var ar query.Arena
	arena, _ := testutil.AllocsWithoutGC(20, func() {
		ar.Reset()
		if _, err := a.CanonicalIn(&ar); err != nil {
			t.Fatal(err)
		}
	})
	if heap > 18 || arena > 0 {
		t.Errorf("Canonical(chain-10) = %.2f allocs, want <= 18; CanonicalIn on a warm arena = %.2f, want 0", heap, arena)
	}
}
