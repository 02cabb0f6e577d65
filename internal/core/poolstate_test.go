package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/memo"
	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/query"
	"cote/internal/workload"
)

// The pool-state suite: what an estimate returns, what its MEMO is charged
// and whether a tight memory budget admits it must not depend on what the
// pooled workspace served before — not on the capacities its scratch grew
// to, the chunks its arenas hold, or the lengths its entries' lists reached.

// poolTenants are the requests a workspace serves before the one under
// test: nothing at all, a 10-table clique (1,023 entries, the largest
// arenas), a 3-table chain (smaller than everything), and a bench-shaped
// clique with more columns per table than any workload query.
func poolTenants(t *testing.T) map[string]*query.Block {
	clique10 := workload.Clique(1).Queries[4].Block
	if clique10.NumTables() != 10 {
		t.Fatalf("Clique(1).Queries[4] has %d tables, want 10", clique10.NumTables())
	}
	return map[string]*query.Block{
		"nothing":     nil,
		"clique10":    clique10,
		"chain3":      benchShapeBlock(t, "chain", 3),
		"morecolumns": benchShapeBlock(t, "clique", 7),
	}
}

// poolProbe is one request whose outcome is compared across pool states.
type poolProbe struct {
	name string
	blk  *query.Block
	cfg  *cost.Config
}

func poolProbes(t *testing.T) []poolProbe {
	return []poolProbe{
		{"real2 headline", workload.Real2(1).Queries[7].Block, cost.Serial}, // 14 tables, 3 views
		{"star n8 p3, 4 nodes", workload.Star(4).Queries[7].Block, cost.Parallel4},
		{"linear n6 p5", workload.Linear(1).Queries[4].Block, cost.Serial},
		{"bench clique-6", benchShapeBlock(t, "clique", 6), cost.Serial},
	}
}

// blockOutcome is everything observable about one block's estimate.
type blockOutcome struct {
	Est         BlockEstimate
	CardBits    uint64
	DurablePeak int64
	ScratchPeak int64
}

// estimateOn serves tenant and then blk on one workspace that never saw a
// pool, under a memory budget (0 = none).
func estimateOn(t *testing.T, ws *workspace, tenant, blk *query.Block, opts Options, budget int64) (blockOutcome, error) {
	t.Helper()
	if tenant != nil {
		for _, b := range tenant.Blocks() {
			o := Options{Level: opt.LevelHigh}
			ws.reset(b, nil, nil, o)
			if _, err := ws.estimate(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts.Exec = optctx.New(context.Background())
	opts.Exec.SetMemBudget(budget)
	ws.reset(blk, nil, nil, opts)
	be, err := ws.estimate(opts)
	if err != nil {
		return blockOutcome{}, err
	}
	// The block is the run's only one and its durable bytes only grow, so
	// the total peak is the final durable bytes plus the counter's scratch.
	res := opts.Exec.Resources()
	out := blockOutcome{Est: *be, CardBits: math.Float64bits(outputCard(blk, ws.mem)), DurablePeak: res.DurablePeakBytes, ScratchPeak: res.PeakBytes - res.DurablePeakBytes}
	return out, nil
}

// TestPoolStateBlockEstimate drives one workspace by
// hand, so the state it is in is known rather than whatever sync.Pool hands
// back: every block of every probe after every tenant. The scratch charge is
// part of the outcome — it used to be the buffers' capacities, which
// remember the largest tenant — and so is the decision of the tightest
// budget that admits the block on a fresh workspace, and of one byte less.
func TestPoolStateBlockEstimate(t *testing.T) {
	tenants := poolTenants(t)
	for _, p := range poolProbes(t) {
		for _, blk := range p.blk.Blocks() {
			opts := Options{Level: opt.LevelHigh, Config: p.cfg}
			fresh := func() *workspace { return &workspace{mem: memo.New(0)} }
			want, err := estimateOn(t, fresh(), nil, blk, opts, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Entries are all a budget poll can see: properties and
			// scratch are added after the last one.
			tight := int64(want.Est.Entries) * memo.EntryFootprint
			if _, err := estimateOn(t, fresh(), nil, blk, opts, tight); err != nil {
				t.Fatalf("%s/%s: budget %d rejected on a fresh workspace: %v", p.name, blk.Name, tight, err)
			}
			for name, tenant := range tenants {
				got, err := estimateOn(t, fresh(), tenant, blk, opts, tight)
				if err != nil {
					t.Fatalf("%s/%s after %s: budget %d rejected: %v", p.name, blk.Name, name, tight, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s after %s:\n got  %+v\n want %+v", p.name, blk.Name, name, got, want)
				}
				if _, err := estimateOn(t, fresh(), tenant, blk, opts, tight-1); !errors.Is(err, optctx.ErrMemBudgetExceeded) {
					t.Fatalf("%s/%s after %s: budget %d: err %v, want ErrMemBudgetExceeded", p.name, blk.Name, name, tight-1, err)
				}
			}
		}
	}
}

// TestPoolStateScratchCharge pins the figure itself on one
// block: two join-column buffers at the widest join's column count plus the
// representative marks, however large a tenant left the buffers.
func TestPoolStateScratchCharge(t *testing.T) {
	blk := workload.Linear(1).Queries[4].Block // 6 tables, 5 predicates per edge
	opts := Options{Level: opt.LevelHigh}
	ws := &workspace{mem: memo.New(0)}
	got, err := estimateOn(t, ws, workload.Clique(1).Queries[4].Block, blk, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	widest := 0
	ws.reset(blk, nil, nil, opts)
	if _, err := ws.enumerator(opts.Level, opts).Run(enum.Hooks{Join: func(outer, inner, _ *memo.Entry) {
		oc, _ := blk.AppendJoinCols(outer.Tables, inner.Tables, nil, nil)
		widest = max(widest, len(oc))
	}}); err != nil {
		t.Fatal(err)
	}
	if want := int64(2*widest)*counterColIDBytes + int64(len(blk.Columns)); got.ScratchPeak != want || widest < 5 {
		t.Fatalf("scratch charge %d, want %d (2 buffers × %d join columns × %d bytes + %d columns)", got.ScratchPeak, want, widest, counterColIDBytes, len(blk.Columns))
	}
	if cap(ws.cnt.ocBuf) <= widest {
		t.Fatalf("the tenant left the join-column buffer at capacity %d: nothing for the charge to ignore", cap(ws.cnt.ocBuf))
	}
}

// TestPoolStateConcurrent is the same property
// through the public entry point and the real pool: eight goroutines send
// tenants and probes in different orders, so every workspace is handed from
// large requests to small ones and back. Each
// probe's Estimate JSON (Elapsed zeroed), MeasuredPeakBytes and budget
// decisions must equal the reference taken before the goroutines start.
func TestPoolStateConcurrent(t *testing.T) {
	probes := poolProbes(t)
	var tenants []*query.Block
	for _, b := range poolTenants(t) {
		if b != nil {
			tenants = append(tenants, b)
		}
	}
	run := func(p poolProbe, budget int64) (string, int64, error) {
		exec := optctx.New(context.Background())
		exec.SetMemBudget(budget)
		est, err := EstimatePlans(p.blk, Options{Level: opt.LevelHigh, Config: p.cfg, Exec: exec})
		if err != nil {
			return "", 0, err
		}
		est.Elapsed = 0
		js, err := json.Marshal(est)
		if err != nil {
			return "", 0, err
		}
		return string(js), est.MeasuredPeakBytes, nil
	}
	type reference struct {
		js    string
		peak  int64
		tight int64 // the smallest budget that admits the probe
	}
	refs := make([]reference, len(probes))
	for i, p := range probes {
		js, peak, err := run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := int64(1), peak // a budget of the whole durable charge admits
		for lo < hi {
			mid := (lo + hi) / 2
			if _, _, err := run(p, mid); err == nil {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		refs[i] = reference{js, peak, lo}
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
				if _, err := EstimatePlans(tenants[(g+round)%len(tenants)], Options{Level: opt.LevelHigh}); err != nil {
					fail("tenant: %v", err)
					return
				}
				i := (g + 3*round) % len(probes)
				p, ref := probes[i], refs[i]
				js, peak, err := run(p, ref.tight)
				if err != nil || js != ref.js || peak != ref.peak {
					fail("%s under budget %d: err %v\n got  %s (peak %d)\n want %s (peak %d)", p.name, ref.tight, err, js, peak, ref.js, ref.peak)
					return
				}
				if _, _, err := run(p, ref.tight-1); !errors.Is(err, optctx.ErrMemBudgetExceeded) {
					fail("%s under budget %d: err %v, want ErrMemBudgetExceeded", p.name, ref.tight-1, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
