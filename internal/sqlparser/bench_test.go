package sqlparser_test

import (
	"math/rand"
	"testing"

	"cote/internal/query"
	"cote/internal/sqlparser"
	"cote/internal/testutil"
)

// benchStatement is one benchmark-style spelling: the statement a
// warm_repeat or cold_* request carries, over the benchmark-shaped catalog.
func benchStatement(kind string, n int) string {
	rng := rand.New(rand.NewSource(int64(n)))
	return testutil.BenchSQL(rng, kind, rng.Perm(testutil.BenchTables)[:n])
}

var sinkBlock *query.Block

func benchParse(b *testing.B, kind string, n int) {
	cat, sql := testutil.BenchCatalog(), benchStatement(kind, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := sqlparser.Parse(sql, cat)
		if err != nil {
			b.Fatal(err)
		}
		sinkBlock = blk
	}
}

func BenchmarkParseChain10(b *testing.B) { benchParse(b, "chain", 10) }
func BenchmarkParseStar9(b *testing.B)   { benchParse(b, "star", 9) }
func BenchmarkParseClique7(b *testing.B) { benchParse(b, "clique", 7) }

// TestParseAllocs pins what a parse allocates: 27, 26 and 27 at PR 19 (the
// token slice, the parser, the block name, builder and block, two slab
// chunks each for table references and column instances with their pointer
// lists, the predicate and clause slices, and Finalize's six index arrays);
// 372, 335 and 322 before it, when every column instance was its own object
// and the closure kept three maps. The ceilings are the counts measured with
// go1.24.0, so one more allocation fails.
func TestParseAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race changes allocation counts")
	}
	cat := testutil.BenchCatalog()
	for _, tc := range []struct {
		kind string
		n    int
		max  float64
	}{{"chain", 10, 27}, {"star", 9, 26}, {"clique", 7, 27}} {
		sql := benchStatement(tc.kind, tc.n)
		got := testing.AllocsPerRun(20, func() {
			if _, err := sqlparser.Parse(sql, cat); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("Parse(%s-%d, %d bytes) = %.0f allocs, want <= %.0f", tc.kind, tc.n, len(sql), got, tc.max)
		}
	}
}
