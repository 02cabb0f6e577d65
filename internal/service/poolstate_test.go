package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cote/internal/core"
	"cote/internal/optctx"
)

// viewSQL reads a derived table: two blocks, two workspaces per compile.
const viewSQL = `SELECT c_name FROM customer,
	  (SELECT o_custkey FROM orders, lineitem WHERE o_orderkey = l_orderkey) AS ov
	WHERE c_custkey = ov.o_custkey`

// TestPoolStateCompileConcurrent is TestPoolStateCompile through the
// optimize route and the real workspace pool: eight goroutines send tenants
// and probes in different orders, so every workspace is handed from large
// compiles to small ones and back. Each probe's response (its elapsed time
// zeroed) and its decisions at the tightest memory budget that admits it and
// at one byte less must equal the reference taken before the goroutines
// start.
func TestPoolStateCompileConcurrent(t *testing.T) {
	srv := New(Config{Workers: 8})
	// Admission would reject a tight budget on the structural memory model's
	// prediction before compiling; a one-byte model leaves the decision to
	// the compile's own measured charges.
	srv.models.InstallMem(&core.MemModel{Base: 1}, "test", 0)

	tenants := []OptimizeRequest{
		{Catalog: "tpch", SQL: heavySQL, Level: "high"},
		{Catalog: "tpch", SQL: tpchQ3, Level: "high"},
		{Catalog: "tpch_p", SQL: tpchQ6, Level: "high"},
		{Catalog: "tpch", SQL: viewSQL, Level: "high"},
	}
	probes := []OptimizeRequest{
		{Catalog: "tpch", SQL: tpchQ4, Level: "high"},
		{Catalog: "tpch", SQL: tpchQ6, Level: "inner2"},
		{Catalog: "tpch", SQL: tpchQ3 + " FETCH FIRST 10 ROWS ONLY", Level: "high"},
		{Catalog: "tpch", SQL: `SELECT n_name, COUNT(*) FROM customer, orders, nation
			WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey
			GROUP BY n_name ORDER BY n_name`, Level: "high"},
		{Catalog: "tpch_p", SQL: tpchQ4, Level: "high"},
		{Catalog: "tpch", SQL: viewSQL, Level: "inner2"},
	}
	run := func(req OptimizeRequest, budget int64) (*OptimizeResponse, error) {
		req.MemBudgetBytes = budget
		req.OnOverBudget = "reject"
		resp, err := srv.Optimize(context.Background(), req)
		if err == nil {
			resp.ElapsedNS = 0
		}
		return resp, err
	}
	type reference struct {
		resp  *OptimizeResponse
		tight int64 // the smallest budget that admits the probe
	}
	refs := make([]reference, len(probes))
	for i, p := range probes {
		if _, err := run(p, 0); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		hi := int64(1)
		for ; ; hi *= 2 {
			if _, err := run(p, hi); err == nil {
				break
			} else if !errors.Is(err, optctx.ErrMemBudgetExceeded) {
				t.Fatalf("probe %d under budget %d: %v", i, hi, err)
			}
		}
		lo := hi / 2
		for lo < hi {
			mid := (lo + hi) / 2
			if _, err := run(p, mid); err == nil {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		resp, err := run(p, lo)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = reference{resp, lo}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				t.Errorf("goroutine %d: %s", g, fmt.Sprintf(format, args...))
			}
			for round := 0; round < 6; round++ {
				if _, err := run(tenants[(g+round)%len(tenants)], 0); err != nil {
					fail("tenant: %v", err)
					return
				}
				i := (g + 3*round) % len(probes)
				resp, err := run(probes[i], refs[i].tight)
				if err != nil || !reflect.DeepEqual(resp, refs[i].resp) {
					fail("probe %d under budget %d: err %v\n got  %+v\n want %+v", i, refs[i].tight, err, resp, refs[i].resp)
					return
				}
				if _, err := run(probes[i], refs[i].tight-1); !errors.Is(err, optctx.ErrMemBudgetExceeded) {
					fail("probe %d under budget %d: err %v, want ErrMemBudgetExceeded", i, refs[i].tight-1, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
