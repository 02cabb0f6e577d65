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

// BenchmarkParseInChain10 is the serving path's parse: into a statement
// arena reset per request, as the pool hands it over.
func BenchmarkParseInChain10(b *testing.B) {
	cat, sql := testutil.BenchCatalog(), benchStatement("chain", 10)
	var a query.Arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		blk, err := sqlparser.ParseIn(&a, sql, cat)
		if err != nil {
			b.Fatal(err)
		}
		sinkBlock = blk
	}
}

func BenchmarkParseChain10(b *testing.B) { benchParse(b, "chain", 10) }
func BenchmarkParseStar9(b *testing.B)   { benchParse(b, "star", 9) }
func BenchmarkParseClique7(b *testing.B) { benchParse(b, "clique", 7) }

// TestParseAllocs pins what a parse allocates. Into a warm statement arena
// (the serving path) it is nothing: the blocks are carved from the arena,
// the parser, its current token and its clause lists live on the stack, and
// the block name is arena text. The frozen heap entry point, Parse, pays for
// a fresh arena's chunks: 19 on each shape with go1.24.0, against 27, 26 and
// 27 with a token slice and builder-owned slabs (the tokens, the parser, the
// block name, builder and block, slab chunks with their pointer lists, the
// predicate and clause slices, Finalize's index arrays) and 372, 335 and 322
// with one object per column instance. The
// ceilings are the measured counts, so one more allocation fails. The
// measured loops run with the GC held off, so a pool drop cannot move them.
func TestParseAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race changes allocation counts")
	}
	cat := testutil.BenchCatalog()
	var a query.Arena
	for _, tc := range []struct {
		kind string
		n    int
		heap float64
	}{{"chain", 10, 19}, {"star", 9, 19}, {"clique", 7, 19}} {
		sql := benchStatement(tc.kind, tc.n)
		heap, _ := testutil.AllocsWithoutGC(20, func() {
			if _, err := sqlparser.Parse(sql, cat); err != nil {
				t.Fatal(err)
			}
		})
		arena, _ := testutil.AllocsWithoutGC(20, func() {
			a.Reset()
			if _, err := sqlparser.ParseIn(&a, sql, cat); err != nil {
				t.Fatal(err)
			}
		})
		if heap > tc.heap || arena > 0 {
			t.Errorf("%s-%d (%d bytes): Parse = %.2f allocs, want <= %.0f; ParseIn on a warm arena = %.2f, want 0",
				tc.kind, tc.n, len(sql), heap, tc.heap, arena)
		}
	}
}
