package optctx_test

import (
	"context"
	"errors"
	"testing"

	"cote/internal/bitset"
	"cote/internal/memo"
	"cote/internal/optctx"
)

// block fills a MEMO with n base entries and one node chunk.
func block(n int) *memo.Memo {
	m := memo.New(n)
	for t := 0; t < n; t++ {
		m.GetOrCreate(bitset.Single(t))
	}
	m.NewPlan()
	return m
}

// TestEndBlockPeaks pins how a block's MEMO folds into the run: the run's
// peaks add the block's peaks, not its final bytes, to what earlier blocks
// hold, and what the block pruned is no longer held.
func TestEndBlockPeaks(t *testing.T) {
	c := optctx.New(context.Background())
	first := block(2)
	c.EndBlock(first, 0, 0)

	// Two plans kept, then a third that prunes both: the block ends with
	// one plan and peaked at two.
	m := memo.New(1)
	m.PipelineMatters = true
	e, _ := m.GetOrCreate(bitset.Single(0))
	m.InsertPlan(e, &memo.Plan{Cost: 100, Pipelined: true})
	m.InsertPlan(e, &memo.Plan{Cost: 50})
	m.InsertPlan(e, &memo.Plan{Cost: 10, Pipelined: true})
	if m.NumPlans() != 1 {
		t.Fatalf("%d plans kept, want 1", m.NumPlans())
	}
	c.EndBlock(m, 0, 0)

	held := first.Bytes() + memo.EntryFootprint + memo.PlanFootprint
	durable := first.DurableBytes() + memo.EntryFootprint + memo.PlanFootprint
	want := optctx.Resources{
		UsedBytes:        held,
		PeakBytes:        held + memo.PlanFootprint,
		DurableUsedBytes: durable,
		DurablePeakBytes: durable + memo.PlanFootprint,
	}
	if got := c.Resources(); got != want {
		t.Fatalf("Resources = %+v, want %+v", got, want)
	}
}

// TestDurableExcludesScratch pins the split of the run's bytes: node chunks
// and the scratch a block's driver keeps or frees count toward the total,
// never toward the durable bytes, and freed scratch reaches the peak only.
func TestDurableExcludesScratch(t *testing.T) {
	c := optctx.New(context.Background())
	m := block(3)
	c.EndBlock(m, 100, 0)
	c.EndBlock(memo.New(0), 0, 1000)

	durable := 3 * memo.EntryFootprint
	held := durable + memo.NodeChunkBytes + 100
	want := optctx.Resources{
		UsedBytes:        held,
		PeakBytes:        held + 1000,
		DurableUsedBytes: durable,
		DurablePeakBytes: durable,
	}
	if got := c.Resources(); got != want {
		t.Fatalf("Resources = %+v, want %+v", got, want)
	}
}

// TestNilCtxIsSafe: a nil Ctx ignores what it is given and reads as zero.
func TestNilCtxIsSafe(t *testing.T) {
	var c *optctx.Ctx
	c.SetMemBudget(1)
	c.SetLiveBytes(10)
	c.EndBlock(block(2), 10, 10)
	if got := c.Resources(); got != (optctx.Resources{}) {
		t.Fatalf("nil Ctx Resources = %+v, want zero", got)
	}
	if c.Cancelled() || c.Err() != nil {
		t.Fatal("a nil Ctx is never cancelled")
	}
}

// TestMemBudgetSeesHeldAndLive pins what the memory budget tests: the bytes
// finished blocks hold plus the running block's published MEMO bytes, which
// EndBlock takes over so they are not counted twice.
func TestMemBudgetSeesHeldAndLive(t *testing.T) {
	first := block(2)
	budget := first.Bytes() + 50
	c := optctx.New(context.Background())
	c.SetMemBudget(budget)
	c.SetLiveBytes(first.Bytes())
	c.EndBlock(first, 0, 0)
	c.SetLiveBytes(50)
	if c.Cancelled() {
		t.Fatalf("budget %d: cancelled at held %d + live 50", budget, first.Bytes())
	}
	if got := c.Resources().UsedBytes; got != budget {
		t.Fatalf("UsedBytes = %d, want held plus live %d", got, budget)
	}
	c.SetLiveBytes(51)
	if !c.Cancelled() || !errors.Is(c.Err(), optctx.ErrMemBudgetExceeded) {
		t.Fatalf("one byte over budget: Cancelled %v, Err %v", c.Cancelled(), c.Err())
	}
}
