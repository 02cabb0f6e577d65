package sqlparser_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"cote/internal/core"
	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/query"
	"cote/internal/sqlparser"
	"cote/internal/testutil"
	"cote/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_blocks.txt from the code under test")

const goldenPath = "testdata/golden_blocks.txt"

// dumpBlock writes every exported field of the block and of its nested
// blocks, in slice order, so that two dumps are equal exactly when the
// blocks are reflect.DeepEqual up to the Finalize caches (which are a
// function of the dumped fields).
func dumpBlock(w *bytes.Buffer, b *query.Block) {
	fmt.Fprintf(w, "block %q catalog %s aggs %d first %d\n", b.Name, b.Catalog.Name(), b.NumAggs, b.FirstN)
	for _, t := range b.Tables {
		fmt.Fprintf(w, " table %d %q first %d cols %d corr %v", t.Index, t.Alias, t.FirstCol, t.NumCols, t.Correlated)
		if t.Derived != nil {
			w.WriteString(" derived {\n")
			dumpBlock(w, t.Derived)
			w.WriteString(" }\n")
		} else {
			fmt.Fprintf(w, " base %s\n", t.Table.Name)
		}
	}
	for _, c := range b.Columns {
		fmt.Fprintf(w, " col %d of %d %q ndv %v ord %d\n", c.ID, c.Ref.Index, c.Col.Name, c.Col.NDV, c.Col.Ordinal)
	}
	for _, p := range b.LocalPreds {
		fmt.Fprintf(w, " local %+v\n", p)
	}
	for _, p := range b.JoinPreds {
		fmt.Fprintf(w, " join %+v\n", p)
	}
	for _, o := range b.OuterJoins {
		fmt.Fprintf(w, " outer %+v\n", o)
	}
	fmt.Fprintf(w, " group %v order %v select %v\n", b.GroupBy, b.OrderBy, b.Select)
}

func digest(b *query.Block) string {
	var buf bytes.Buffer
	dumpBlock(&buf, b)
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:32]
}

type goldenCase struct {
	name string
	sql  string
	blk  *query.Block
}

// goldenCorpus parses every statement of the SQL-defined workloads, serial
// and 4-node, and three spellings of each join shape and size the repository
// benchmark sends.
func goldenCorpus(t *testing.T) []goldenCase {
	var out []goldenCase
	for _, nodes := range []int{1, 4} {
		for _, w := range []*workload.Workload{workload.Real1(nodes), workload.Real2(nodes), workload.TPCH(nodes)} {
			for _, q := range w.Queries {
				out = append(out, goldenCase{q.Name, q.SQL, q.Block})
			}
		}
	}
	cat := testutil.BenchCatalog()
	rng := rand.New(rand.NewSource(19))
	for _, shape := range []struct {
		kind string
		n    int
	}{{"chain", 6}, {"chain", 10}, {"star", 9}, {"clique", 5}, {"clique", 6}, {"clique", 7}} {
		tables := rng.Perm(testutil.BenchTables)[:shape.n]
		for k := 0; k < 3; k++ {
			sql := testutil.BenchSQL(rng, shape.kind, tables)
			blk, err := sqlparser.Parse(sql, cat)
			if err != nil {
				t.Fatalf("%s-%d spelling %d: %v\n%s", shape.kind, shape.n, k, err, sql)
			}
			out = append(out, goldenCase{fmt.Sprintf("bench_%s%d_%d", shape.kind, shape.n, k), sql, blk})
		}
	}
	return out
}

// TestGoldenBlocks pins what the front of the pipeline produces against a
// record made by the code before the allocation-lean rewrite (PR 19's parent
// commit; regenerate only with -update-golden, and only when a change means
// to alter blocks): for every corpus statement the fingerprint, a digest of
// the parsed block and a digest of its canonical rebuild — predicate order,
// implied predicates, column numbering and block names included.
func TestGoldenBlocks(t *testing.T) {
	corpus := goldenCorpus(t)
	var got bytes.Buffer
	canon := make(map[string]*query.Block)
	for _, c := range corpus {
		parsed := digest(c.blk)
		// Spellings of one benchmark structure share a canonical block once
		// they share a name (the parser names a block after its first words).
		group := ""
		if i := strings.LastIndexByte(c.name, '_'); strings.HasPrefix(c.name, "bench_") {
			group = c.name[:i]
			c.blk.Name = group
		}
		cb, fp, err := fingerprint.Canonical(c.blk)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if of := fingerprint.Of(c.blk); of != fp {
			t.Fatalf("%s: Of %s, Canonical %s", c.name, of, fp)
		}
		fmt.Fprintf(&got, "%s %s %s %s\n", c.name, fp, parsed, digest(cb))
		if first, ok := canon[group]; !ok {
			canon[group] = cb
		} else if group != "" && !reflect.DeepEqual(first, cb) {
			t.Errorf("%s: canonical rebuild differs from spelling 0's", c.name)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), goldenLines(t)
	if len(gotLines) != len(wantLines) {
		t.Fatalf("corpus has %d lines, golden file %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

func goldenLines(t *testing.T) []string {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(want), "\n")
}

// TestGoldenBlocksFromReusedArena reproduces the golden record through the
// serving path's storage: each corpus statement is parsed, fingerprinted
// and rebuilt into one statement arena, reset before it, that has just
// served real2's headline query — three views, parsed, rebuilt and
// estimated, so derived cardinalities were written into the arena's table
// references. Reset must leave nothing of any of it behind.
func TestGoldenBlocksFromReusedArena(t *testing.T) {
	want := goldenLines(t)
	headline := workload.Real2(1).Queries[7]
	var a query.Arena
	serveHeadline := func() {
		a.Reset()
		blk, err := sqlparser.ParseIn(&a, headline.SQL, headline.Block.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := fingerprint.Analyze(blk).CanonicalIn(&a)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []*query.Block{blk, cb} {
			if _, err := core.EstimatePlans(b, core.Options{Level: opt.LevelHigh}); err != nil {
				t.Fatal(err)
			}
		}
		a.Reset()
	}
	for i, c := range goldenCorpus(t) {
		serveHeadline()
		blk, err := sqlparser.ParseIn(&a, c.sql, c.blk.Catalog)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		blk.Name = c.blk.Name // the workloads name their blocks
		parsed := digest(blk)
		if cut := strings.LastIndexByte(c.name, '_'); strings.HasPrefix(c.name, "bench_") {
			blk.Name = c.name[:cut]
		}
		an := fingerprint.Analyze(blk)
		cb, err := an.CanonicalIn(&a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fmt.Sprintf("%s %s %s %s", c.name, an.FP, parsed, digest(cb)); got != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got, want[i])
		}
	}
}
