package service

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"cote/internal/query"
	"cote/internal/testutil"
)

// Multi-block tenants: each writes derived cardinalities into table
// references of its statement arena when it is estimated or compiled.
const (
	inSQL = `SELECT c_name FROM customer
		WHERE c_custkey IN (SELECT o_custkey FROM orders, lineitem WHERE o_orderkey = l_orderkey)`
	outerSQL = `SELECT c_name FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey, nation
		WHERE c_nationkey = n_nationkey`
)

// benchCatalogDef is testutil.BenchCatalog as an upload, so the server can
// answer the repository benchmark's statements.
func benchCatalogDef() CatalogDef {
	cat := testutil.BenchCatalog()
	def := CatalogDef{Name: cat.Name()}
	for _, name := range cat.TableNames() {
		t := cat.MustTable(name)
		td := TableDef{Name: t.Name, Rows: t.RowCount}
		for _, c := range t.Columns {
			td.Columns = append(td.Columns, ColumnDef{Name: c.Name, NDV: c.NDV})
		}
		for _, ix := range t.Indexes {
			td.Indexes = append(td.Indexes, IndexDef{Name: ix.Name, Unique: ix.Unique, Columns: ix.Columns})
		}
		def.Tables = append(def.Tables, td)
	}
	return def
}

// benchProbes are benchmark-shaped estimate requests: one spelling each of
// the join shapes the benchmark's workloads send.
func benchProbes(catalog string) []EstimateRequest {
	rng := rand.New(rand.NewSource(36))
	var out []EstimateRequest
	for _, s := range []struct {
		kind string
		n    int
	}{{"chain", 10}, {"star", 9}, {"clique", 6}} {
		sql := testutil.BenchSQL(rng, s.kind, rng.Perm(testutil.BenchTables)[:s.n])
		out = append(out, EstimateRequest{Catalog: catalog, SQL: sql, Level: "high"})
	}
	return out
}

// estimateBytes sends req and returns the response as JSON with its
// interleaving-dependent fields zeroed: the estimator's wall time and the
// cache provenance.
func estimateBytes(srv *Server, req EstimateRequest) ([]byte, error) {
	resp, err := srv.Estimate(context.Background(), req)
	if err != nil {
		return nil, err
	}
	resp.Cached, resp.Estimate.Elapsed = false, 0
	return json.Marshal(resp)
}

// TestPoolStateEstimateConcurrent is the estimate-side twin of
// TestPoolStateCompileConcurrent, for the statement arena pool. The cache
// holds one entry, so every request parses into an arena and nearly every
// one rebuilds its canonical block into it; eight goroutines send
// multi-block tenants and benchmark-shaped probes in different orders, so
// arenas pass between statements of every shape. Every probe's response
// must equal the reference taken before the goroutines start.
func TestPoolStateEstimateConcurrent(t *testing.T) {
	srv := New(Config{Workers: 8, CacheCapacity: 1})
	entry, err := srv.registry.Register(benchCatalogDef())
	if err != nil {
		t.Fatal(err)
	}
	tenants := []EstimateRequest{
		{Catalog: "tpch", SQL: viewSQL, Level: "high"},
		{Catalog: "tpch", SQL: inSQL, Level: "high"},
		{Catalog: "tpch", SQL: outerSQL, Level: "high"},
		{Catalog: "tpch", SQL: heavySQL, Level: "inner2"},
	}
	probes := append(benchProbes(entry.Name),
		EstimateRequest{Catalog: "tpch", SQL: tpchQ4, Level: "high"},
		EstimateRequest{Catalog: "tpch", SQL: viewSQL, Level: "inner2"},
		EstimateRequest{Catalog: "tpch", SQL: outerSQL, Level: "leftdeep"},
	)
	refs := make([][]byte, len(probes))
	for i, p := range probes {
		if refs[i], err = estimateBytes(srv, p); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				if _, err := srv.Estimate(context.Background(), tenants[(g+round)%len(tenants)]); err != nil {
					t.Errorf("goroutine %d: tenant: %v", g, err)
					return
				}
				i := (g + 3*round) % len(probes)
				got, err := estimateBytes(srv, probes[i])
				if err != nil || string(got) != string(refs[i]) {
					t.Errorf("goroutine %d: probe %d: err %v\n got  %s\n want %s", g, i, err, got, refs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCancelledRunsRecycleArena cancels a compile from its progress hook and
// an estimate miss as it takes its slot, and then sends the same server 200
// more requests. A cancelled request returns once its work has unwound at
// the next cancellation point, so the pool is empty when the endpoint
// returns and its arena goes back to the pool like every other; no
// goroutine outlives the test. Every later response must equal a fresh
// server's; neither server has a model, so neither refits one, whose fit
// would follow the compiles' wall times.
func TestCancelledRunsRecycleArena(t *testing.T) {
	testutil.CheckGoroutines(t)
	cfg := Config{Workers: 2}
	srv := New(cfg)
	recycled := 0
	srv.arenaReleased = func(*query.Arena) { recycled++ }
	cancelled := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", what, err)
		}
		if waiting, running := srv.pool.Depth(); waiting != 0 || running != 0 {
			t.Fatalf("%s returned with waiting %d, running %d", what, waiting, running)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	srv.progress.hooks.OnProgress = func(int64, int64) { cancel() }
	_, err := srv.Optimize(ctx, OptimizeRequest{Catalog: "tpch", SQL: heavySQL, Level: "high"})
	srv.progress.hooks.OnProgress = nil
	cancelled("compile", err)

	ctx, cancel = context.WithCancel(context.Background())
	srv.missStarted = cancel
	_, err = srv.Estimate(ctx, EstimateRequest{Catalog: "tpch", SQL: viewSQL, Level: "high"})
	srv.missStarted = nil
	cancelled("estimate miss", err)

	if recycled != 2 || srv.pool.Abandoned() != 2 {
		t.Fatalf("%d arenas recycled and %d runs abandoned, want 2 and 2", recycled, srv.pool.Abandoned())
	}

	fresh := New(cfg)
	send := func(s *Server, i int) ([]byte, error) {
		sqls := []string{viewSQL, inSQL, outerSQL, tpchQ3, tpchQ4, tpchQ6}
		sql, level := sqls[i%len(sqls)], []string{"high", "inner2", "leftdeep"}[i/len(sqls)%3]
		if i%5 == 4 {
			resp, err := s.Optimize(context.Background(), OptimizeRequest{Catalog: "tpch", SQL: sql, Level: level})
			if err != nil {
				return nil, err
			}
			resp.ElapsedNS = 0
			return json.Marshal(resp)
		}
		resp, err := s.Estimate(context.Background(), EstimateRequest{Catalog: "tpch", SQL: sql, Level: level})
		if err != nil {
			return nil, err
		}
		resp.Estimate.Elapsed = 0
		return json.Marshal(resp)
	}
	for i := 0; i < 200; i++ {
		want, err := send(fresh, i)
		if err != nil {
			t.Fatalf("request %d on a fresh server: %v", i, err)
		}
		got, err := send(srv, i)
		if err != nil || string(got) != string(want) {
			t.Fatalf("request %d: err %v\n got  %s\n want %s", i, err, got, want)
		}
	}
	if recycled != 202 {
		t.Errorf("%d arenas recycled after 202 requests", recycled)
	}
}
