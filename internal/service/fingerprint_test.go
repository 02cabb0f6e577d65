package service

import (
	"context"
	"strings"
	"testing"

	"cote/internal/optctx"
)

// Two spellings of the same structure: permuted FROM and WHERE clause
// order, renamed aliases, a different literal, gratuitous whitespace.
const (
	respellA = `SELECT n_name FROM customer, orders, lineitem, supplier, nation, region
	 WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey
	   AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	   AND c_mktsegment = 'BUILDING'
	 ORDER BY n_name`
	respellB = `SELECT na.n_name
	   FROM region re, nation na, supplier su, lineitem li, orders orr, customer cu
	  WHERE na.n_regionkey = re.r_regionkey
	    AND cu.c_mktsegment = 'AUTOMOBILE'
	    AND orr.o_orderkey = li.l_orderkey
	    AND li.l_suppkey  =  su.s_suppkey
	    AND su.s_nationkey = na.n_nationkey
	    AND cu.c_custkey = orr.o_custkey
	  ORDER BY na.n_name`
)

// TestWarmPathZeroEnumeration is the acceptance check of the estimate
// cache: a structurally repeated query — in a different spelling — must be
// served without any join enumeration, observed on the per-stage counter
// that moves only when an enumeration actually runs.
func TestWarmPathZeroEnumeration(t *testing.T) {
	srv := New(Config{Workers: 2, CacheCapacity: 16})
	ctx := context.Background()

	cold, err := srv.Estimate(ctx, EstimateRequest{Catalog: "tpch", SQL: respellA})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("cold estimate claims cached")
	}
	enumAfterCold := srv.Metrics().StageCount[optctx.StageEnumerate].Value()
	if enumAfterCold == 0 {
		t.Fatal("cold estimate recorded no enumerate-stage work")
	}

	warm, err := srv.Estimate(ctx, EstimateRequest{Catalog: "tpch", SQL: respellB})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("respelled repeat missed the estimate cache")
	}
	if got := srv.Metrics().StageCount[optctx.StageEnumerate].Value(); got != enumAfterCold {
		t.Fatalf("warm path enumerated: stage count %d -> %d", enumAfterCold, got)
	}
	if warm.Estimate.Counts != cold.Estimate.Counts {
		t.Fatalf("warm counts %+v != cold %+v", warm.Estimate.Counts, cold.Estimate.Counts)
	}

	// Level is part of the key: the same SQL at a second level misses once,
	// then hits at each level.
	for i, c := range []struct {
		level  string
		cached bool
	}{{"leftdeep", false}, {"leftdeep", true}, {"", true}} {
		r, err := srv.Estimate(ctx, EstimateRequest{Catalog: "tpch", SQL: respellA, Level: c.level})
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached != c.cached {
			t.Fatalf("estimate %d at level %q: cached=%v, want %v", i, c.level, r.Cached, c.cached)
		}
		if c.level == "leftdeep" && r.Estimate.Counts == cold.Estimate.Counts {
			t.Fatalf("leftdeep served the %s counts %+v", cold.Level, r.Estimate.Counts)
		}
	}
}

// miniDef is a small uploadable schema for registry epoch tests.
func miniDef(name string) CatalogDef {
	return CatalogDef{
		Name: name,
		Tables: []TableDef{
			{Name: "fact", Rows: 1e6, Columns: []ColumnDef{{Name: "fk", NDV: 1000}, {Name: "m", NDV: 500}}},
			{Name: "dim", Rows: 1e4, Columns: []ColumnDef{{Name: "pk", NDV: 1000}, {Name: "d", NDV: 100}}},
		},
	}
}

const miniSQL = `SELECT m FROM fact, dim WHERE fk = pk`

// TestIdenticalSchemasShareCache: two catalogs registered under different
// names with identical schemas share fingerprint-keyed estimates — the
// first half of the keying bug class the old catalogName|...|sql key had.
func TestIdenticalSchemasShareCache(t *testing.T) {
	srv := New(Config{Workers: 2, CacheCapacity: 16})
	ctx := context.Background()
	for _, name := range []string{"alpha", "beta"} {
		if _, err := srv.Registry().Register(miniDef(name)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := srv.Estimate(ctx, EstimateRequest{Catalog: "alpha", SQL: miniSQL})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first estimate cached")
	}
	second, err := srv.Estimate(ctx, EstimateRequest{Catalog: "beta", SQL: miniSQL})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical schema under another name missed")
	}
}

// TestCatalogReuploadInvalidates: re-registering a catalog bumps its epoch,
// so estimates cached against the old statistics are unreachable.
func TestCatalogReuploadInvalidates(t *testing.T) {
	srv := New(Config{Workers: 2, CacheCapacity: 16})
	ctx := context.Background()
	if _, err := srv.Registry().Register(miniDef("mini")); err != nil {
		t.Fatal(err)
	}
	if r, err := srv.Estimate(ctx, EstimateRequest{Catalog: "mini", SQL: miniSQL}); err != nil || r.Cached {
		t.Fatalf("cold: %v cached=%v", err, r.Cached)
	}
	if r, err := srv.Estimate(ctx, EstimateRequest{Catalog: "mini", SQL: miniSQL}); err != nil || !r.Cached {
		t.Fatalf("warm: %v cached=%v", err, r != nil && r.Cached)
	}
	if _, err := srv.Registry().Register(miniDef("mini")); err != nil {
		t.Fatal(err)
	}
	if r, err := srv.Estimate(ctx, EstimateRequest{Catalog: "mini", SQL: miniSQL}); err != nil || r.Cached {
		t.Fatalf("post-reupload estimate served stale cache: %v cached=%v", err, r != nil && r.Cached)
	}
}

// TestEstimateBatch covers the dedup path: repeats by structure ride along
// with one estimation, malformed statements fail item-locally.
func TestEstimateBatch(t *testing.T) {
	srv := New(Config{Workers: 2, CacheCapacity: 16})
	ctx := context.Background()
	resp, err := srv.EstimateBatch(ctx, EstimateBatchRequest{
		Catalog: "tpch",
		Statements: []string{
			respellA,
			respellB, // same structure, different spelling
			`SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey`,
			`SELECT nothing FROM nowhere`,
			"",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Distinct != 2 || resp.Deduped != 1 {
		t.Fatalf("distinct=%d deduped=%d, want 2/1", resp.Distinct, resp.Deduped)
	}
	if !resp.Items[1].Deduped || resp.Items[0].Deduped {
		t.Fatalf("dedup flags wrong: %+v", resp.Items[:2])
	}
	if resp.Items[0].Fingerprint == "" || resp.Items[0].Fingerprint != resp.Items[1].Fingerprint {
		t.Fatalf("fingerprints %q vs %q", resp.Items[0].Fingerprint, resp.Items[1].Fingerprint)
	}
	if resp.Items[0].Estimate == nil || resp.Items[1].Estimate == nil ||
		resp.Items[0].Estimate.Counts != resp.Items[1].Estimate.Counts {
		t.Fatal("deduped statement did not share the estimate")
	}
	if !strings.Contains(resp.Items[3].Error, "parse") || resp.Items[3].Estimate != nil {
		t.Fatalf("bad SQL item: %+v", resp.Items[3])
	}
	if resp.Items[4].Error == "" {
		t.Fatal("empty statement passed")
	}
	if got := srv.Metrics().BatchDeduped.Value(); got != 1 {
		t.Fatalf("BatchDeduped = %d", got)
	}

	// A repeat batch is all warm: zero additional enumeration.
	enumBefore := srv.Metrics().StageCount[optctx.StageEnumerate].Value()
	again, err := srv.EstimateBatch(ctx, EstimateBatchRequest{
		Catalog:    "tpch",
		Statements: []string{respellB, respellA},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range again.Items[:1] {
		if !it.Cached {
			t.Fatalf("repeat batch item %d not cached", i)
		}
	}
	if got := srv.Metrics().StageCount[optctx.StageEnumerate].Value(); got != enumBefore {
		t.Fatalf("repeat batch enumerated: %d -> %d", enumBefore, got)
	}

	// Whole-request failures.
	if _, err := srv.EstimateBatch(ctx, EstimateBatchRequest{Catalog: "tpch"}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := srv.EstimateBatch(ctx, EstimateBatchRequest{Catalog: "nope", Statements: []string{miniSQL}}); err == nil {
		t.Fatal("unknown catalog accepted")
	}
	if _, err := srv.EstimateBatch(ctx, EstimateBatchRequest{Catalog: "tpch", Statements: make([]string, maxBatchStatements+1)}); err == nil {
		t.Fatal("oversized batch accepted")
	}
}
