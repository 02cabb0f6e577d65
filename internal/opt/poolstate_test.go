package opt

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/memo"
	"cote/internal/optctx"
	"cote/internal/plangen"
	"cote/internal/query"
	"cote/internal/sqlparser"
	"cote/internal/testutil"
	"cote/internal/workload"
)

// The compile pool-state suite: what a compile returns, what it is charged
// and whether a tight memory budget admits it must not depend on what its
// pooled workspaces served before — not on the MEMO's slab and arenas, the
// plan-arena chunks, the buffers' capacities, the estimator's and the
// interner's maps or the hit memo.

// poolCase is one compile: a query and its options.
type poolCase struct {
	name string
	blk  *query.Block
	opts Options
}

// poolTenants are what the workspaces serve before the compile under test:
// nothing, a 10-table clique at high (1,023 entries: the largest MEMO, plan
// arena and maps), a 3-table chain (smaller than everything), the real2
// headline (four blocks, three of them views) and a 4-node parallel star
// (interned partitions, the parallel buffers). Under -race the clique has 8
// tables: the 10-table one compiles for ten seconds there.
func poolTenants(t *testing.T) []poolCase {
	clique := workload.Clique(1).Queries[4]
	if testutil.RaceEnabled {
		clique = workload.Clique(1).Queries[2]
	}
	return []poolCase{
		{"nothing", nil, Options{}},
		{clique.Name, clique.Block, Options{Level: LevelHigh}},
		{"chain-3", firstNBlock(t, 0), Options{Level: LevelHigh}},
		{"real2 headline", workload.Real2(1).Queries[7].Block, Options{Level: LevelHighInner2}},
		{"star n6 p4, 4 nodes", workload.Star(4).Queries[3].Block, Options{Level: LevelHigh, Config: cost.Parallel4}},
	}
}

// poolProbes are the compiles under test: the benchmark's compile shapes at
// high, the real2 headline at the experiments' level, and one query each
// for FETCH FIRST, GROUP BY with ORDER BY, and an expensive predicate — the
// finishing step's three paths.
func poolProbes(t *testing.T) []poolCase {
	return []poolCase{
		{"bench chain-7", benchBlock(t, "chain", 7), Options{Level: LevelHigh}},
		{"bench star-7", benchBlock(t, "star", 7), Options{Level: LevelHigh}},
		{"bench chain-10", benchBlock(t, "chain", 10), Options{Level: LevelHigh}},
		{"real2 headline", workload.Real2(1).Queries[7].Block, Options{Level: LevelHighInner2}},
		{"fetch first", firstNBlock(t, 10), Options{Level: LevelHigh}},
		{"group by, order by", starBlock(t, 6, 2, 1, 1, 1), Options{Level: LevelHigh}},
		{"expensive predicate", expBlock(t, 0.05), Options{Level: LevelHigh}},
	}
}

// benchBlock parses a query shaped like the benchmark's compile requests.
func benchBlock(t *testing.T, kind string, n int) *query.Block {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	blk, err := sqlparser.Parse(testutil.BenchSQL(rng, kind, rng.Perm(testutil.BenchTables)[:n]), testutil.BenchCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// compileOutcome is everything observable about one compile but its times.
type compileOutcome struct {
	Plan               string
	CostBits, CardBits uint64
	Counters           plangen.Counters
	EnumStats          []enum.Stats
	DurablePeak        int64
	ScratchPeak        int64
}

func outcomeOf(res *Result) compileOutcome {
	c := res.TotalCounters()
	clear(c.GenTime[:])
	c.SaveTime, c.AccessTime = 0, 0
	out := compileOutcome{
		Plan:        res.Plan.String(),
		CostBits:    math.Float64bits(res.Plan.Cost),
		CardBits:    math.Float64bits(res.Plan.Card),
		Counters:    c,
		DurablePeak: res.Resources.DurablePeakBytes,
		// A compile frees no scratch before it ends: its scratch peak is
		// what it holds at the end beside the MEMOs' durable bytes.
		ScratchPeak: res.Resources.UsedBytes - res.Resources.DurableUsedBytes,
	}
	for _, b := range res.Blocks {
		out.EnumStats = append(out.EnumStats, b.EnumStats)
	}
	return out
}

// compileOn compiles p in ws by hand under a memory budget (0 = none),
// after the tenant ran in it as often as p has blocks and released every
// time, so each MEMO p takes served the tenant. The workspace never sees a
// pool, so its state is known rather than whatever sync.Pool hands back. p's
// result is released into ws too, for what runs in it next.
func compileOn(t *testing.T, ws *workspace, tenant, p poolCase, budget int64) (compileOutcome, error) {
	t.Helper()
	if tenant.blk != nil {
		var held []*Result
		for range p.blk.Blocks() {
			res, err := ws.optimize(nil, tenant.blk, tenant.opts)
			if err != nil {
				t.Fatalf("tenant %s: %v", tenant.name, err)
			}
			held = append(held, res)
		}
		for _, res := range held {
			ws.reclaim(res)
		}
	}
	oc := optctx.New(context.Background())
	oc.SetMemBudget(budget)
	res, err := ws.optimize(oc, p.blk, p.opts)
	defer ws.reclaim(res)
	if err != nil {
		return compileOutcome{}, err
	}
	return outcomeOf(res), nil
}

// tightBudgets is the tightest memory budget that admits each probe on
// fresh workspaces, recorded when every MEMO entry and plan still charged a
// shared accountant: the budget polls must see the same bytes at the same
// points however the run totals are kept.
var tightBudgets = map[string]int64{
	"bench chain-7":       44384,
	"bench star-7":        138224,
	"bench chain-10":      119960,
	"real2 headline":      351488,
	"fetch first":         33648,
	"group by, order by":  111304,
	"expensive predicate": 33520,
}

// TestPoolStateCompile runs every probe after every tenant and requires the
// plan, its cost and cardinality bits, the counters, the enumeration
// statistics, the durable and the scratch peak of a compile on workspaces
// that served nothing — and the same decision at the tightest memory budget
// that admits the probe there and at one byte less. The one-byte-less run
// follows in the same workspace: what a tenant leaves that a probe cannot
// undo — capacities, chunks, map storage — is still there.
func TestPoolStateCompile(t *testing.T) {
	tenants := poolTenants(t)
	for _, p := range poolProbes(t) {
		fresh := newWorkspace
		want, err := compileOn(t, fresh(), poolCase{}, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The total peak never exceeds durable plus scratch peak, so that
		// budget admits; search down from it.
		lo, hi := int64(1), want.DurablePeak+want.ScratchPeak
		for lo < hi {
			mid := (lo + hi) / 2
			if _, err := compileOn(t, fresh(), poolCase{}, p, mid); err == nil {
				hi = mid
			} else if errors.Is(err, optctx.ErrMemBudgetExceeded) {
				lo = mid + 1
			} else {
				t.Fatal(err)
			}
		}
		tight := lo
		if want := tightBudgets[p.name]; tight != want {
			t.Errorf("%s: tightest admitting budget %d, recorded %d", p.name, tight, want)
		}
		for _, tenant := range tenants {
			ws := fresh()
			got, err := compileOn(t, ws, tenant, p, tight)
			if err != nil {
				t.Fatalf("%s after %s: budget %d rejected: %v", p.name, tenant.name, tight, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after %s:\n got  %+v\n want %+v", p.name, tenant.name, got, want)
			}
			if _, err := compileOn(t, ws, poolCase{}, p, tight-1); !errors.Is(err, optctx.ErrMemBudgetExceeded) {
				t.Fatalf("%s after %s: budget %d: err %v, want ErrMemBudgetExceeded", p.name, tenant.name, tight-1, err)
			}
		}
	}
}

// TestResultRelease pins Release's contract: it nils the plan and every
// block's plan and MEMO but keeps the scalars, a second call does nothing,
// and the released MEMOs serve the next compile, which comes out identical.
func TestResultRelease(t *testing.T) {
	blk := workload.Real2(1).Queries[7].Block // four blocks, four MEMOs
	res, err := Optimize(blk, Options{Level: LevelHighInner2})
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeOf(res)
	released := map[*memo.Memo]bool{}
	for _, b := range res.Blocks {
		released[b.Memo] = true
	}
	res.Release()
	if res.Plan != nil {
		t.Fatalf("Release kept the plan %p", res.Plan)
	}
	for i, b := range res.Blocks {
		if b.Plan != nil || b.Memo != nil {
			t.Fatalf("block %d kept its plan %p or MEMO %p", i, b.Plan, b.Memo)
		}
	}
	if c := res.TotalCounters(); c.TotalGenerated() != want.Counters.TotalGenerated() || res.Resources.DurablePeakBytes != want.DurablePeak {
		t.Fatalf("Release lost the scalars: %d plans, %d B", c.TotalGenerated(), res.Resources.DurablePeakBytes)
	}
	res.Release()

	again, err := Optimize(blk, Options{Level: LevelHighInner2})
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeOf(again); !reflect.DeepEqual(got, want) {
		t.Fatalf("compile after Release:\n got  %+v\n want %+v", got, want)
	}
	if testutil.RaceEnabled {
		return // sync.Pool drops puts under -race
	}
	// sync.Pool promises nothing — a collection empties it, and a goroutine
	// moved to another P does not see the put — so allow a few rounds.
	for round := 0; ; round++ {
		for _, b := range again.Blocks {
			if released[b.Memo] {
				return
			}
			released[b.Memo] = true
		}
		if round == 10 {
			t.Fatal("the released MEMOs never served a later compile")
		}
		again.Release()
		if again, err = Optimize(blk, Options{Level: LevelHighInner2}); err != nil {
			t.Fatal(err)
		}
	}
}
