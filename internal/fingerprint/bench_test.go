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

// TestFingerprintAllocs pins what the fingerprint step and the canonical
// rebuild allocate for a benchmark-style chain-10: 9 and 25 at PR 19, 56
// and 324 before it. The canonical ceiling is the count measured with
// go1.24.0, so one more allocation fails; the fingerprint one sits ~20 %
// above.
func TestFingerprintAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race changes allocation counts")
	}
	blk := benchChain10(t)
	if got := testing.AllocsPerRun(20, func() { fingerprint.Analyze(blk) }); got > 11 {
		t.Errorf("Analyze(chain-10) = %.0f allocs, want <= 11", got)
	}
	a := fingerprint.Analyze(blk)
	got := testing.AllocsPerRun(20, func() {
		if _, err := a.Canonical(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 25 {
		t.Errorf("Canonical(chain-10) = %.0f allocs, want <= 25", got)
	}
}
