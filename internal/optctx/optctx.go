// Package optctx is the per-optimization execution context threaded through
// every layer of the stack: the optimizer facade, the join enumerator, the
// plan generator and the estimation service all share one *Ctx per
// compilation. It carries five concerns:
//
//   - cancellation: a context.Context whose expiry the enumerator observes
//     at size-class and bounded-stride granularity, so a deadline
//     actually stops work instead of letting it run to completion in the
//     background;
//   - a plan budget: an upper bound on generated join plans, the "predict,
//     then bound" loop of the meta-optimizer — when the COTE's prediction
//     turns out wrong, the overrun aborts the compile with
//     ErrBudgetExceeded instead of blowing the caller's latency goal;
//   - live progress: the generated-plan counter ticked by the plan
//     generator over the COTE-predicted total, the paper's Section 6
//     progress-estimation application turned into a live meter;
//   - per-stage observability: parse / enumerate / generate / prune counts
//     and timings, accumulated per compilation and aggregated by the
//     service's /metrics endpoint;
//   - memory: the run's bytes — finished blocks' MEMOs and scratch, added
//     at each block end, plus the running block's MEMO bytes, published by
//     the enumerator before each poll — with an optional byte budget whose
//     overrun aborts the compile with ErrMemBudgetExceeded, mirroring the
//     plan budget on the memory axis (paper Section 6.2).
//
// A nil *Ctx is valid everywhere and means "no deadline, no budget, no
// observers": the hot paths pay a single nil check, so the serial
// non-cancellable fast path is unchanged.
package optctx

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"cote/internal/faultinject"
	"cote/internal/memo"
)

// ErrBudgetExceeded reports that a compilation generated more plans than
// its budget allowed. Callers distinguish it from context errors to drive
// the abort-and-downgrade loop (re-optimize at the next-cheaper level).
var ErrBudgetExceeded = errors.New("optctx: generated-plan budget exceeded")

// ErrMemBudgetExceeded reports that a compilation's measured memory usage
// crossed its byte budget. Like ErrBudgetExceeded it drives the
// abort-and-downgrade ladder, but on the memory axis.
var ErrMemBudgetExceeded = errors.New("optctx: memory budget exceeded")

// Stage identifies one phase of a compilation for observability.
type Stage int

// Compilation stages.
const (
	// StageParse covers SQL parsing and normalization.
	StageParse Stage = iota
	// StageEnumerate covers join enumeration (the DP scan), with plan
	// generation and pruning inside it.
	StageEnumerate
	// StageGenerate counts the plans generated and costed — the bulk of
	// compilation time (Figure 2), timed as part of enumeration.
	StageGenerate
	// StagePrune counts the plans property-aware pruning dropped from the
	// MEMO, timed as part of enumeration.
	StagePrune
	NumStages
)

// Timed reports whether the stage's wall time is measured apart. Generation
// and pruning only count: timing them apart would read the clock on every
// join, and their time is in enumeration's.
func (s Stage) Timed() bool { return s == StageParse || s == StageEnumerate }

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageParse:
		return "parse"
	case StageEnumerate:
		return "enumerate"
	case StageGenerate:
		return "generate"
	case StagePrune:
		return "prune"
	}
	return "unknown"
}

// StageStats is a snapshot of one stage's accumulated work.
type StageStats struct {
	// Count is the number of units the stage processed (statements parsed,
	// joins enumerated, plans generated, plans saved/pruned).
	Count int64
	// Time is the accumulated wall time attributed to the stage; zero for a
	// stage that is not Timed.
	Time time.Duration
}

// Hooks observe a compilation as it runs. The callback runs synchronously
// on the goroutine driving the compilation, so it should return quickly.
// A Ctx serves one compile or estimate at a time.
type Hooks struct {
	// OnProgress fires after progress ticks (batched, roughly once per
	// tick batch of generated plans) with the running totals.
	OnProgress func(generated, predicted int64)
}

// Ctx is one optimization's execution context. The zero value is not
// useful; construct with New. It serves one compile or estimate at a time,
// whose goroutine moves the memory totals; every method is race-free, so
// others may read it meanwhile, and nil-receiver-safe, so layers can thread
// an optional *Ctx without branching at every call site.
type Ctx struct {
	ctx   context.Context
	done  <-chan struct{}
	hooks Hooks

	generated  atomic.Int64 // plans generated so far
	predicted  atomic.Int64 // COTE-predicted total (0 = unknown)
	budget     atomic.Int64 // abort bound on generated (0 = unlimited)
	overBudget atomic.Bool

	// The run's memory: what finished blocks hold (held, durable of it)
	// and the peaks, which EndBlock moves, and live, the running block's
	// MEMO bytes the enumerator publishes before each poll. memBudget arms
	// the cooperative memory abort, mirroring the generated-plan budget.
	held, durable, peak, durablePeak atomic.Int64
	live                             atomic.Int64
	memBudget                        atomic.Int64 // abort bound on held+live (0 = unlimited)
	overMem                          atomic.Bool

	stageCount [NumStages]atomic.Int64
	stageNS    [NumStages]atomic.Int64
}

// New returns an execution context observing ctx. A nil ctx is treated as
// context.Background().
func New(ctx context.Context) *Ctx {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Ctx{ctx: ctx, done: ctx.Done()}
}

// WithHooks installs observability hooks and returns c. Install hooks
// before the optimization starts; the field is not synchronized.
func (c *Ctx) WithHooks(h Hooks) *Ctx {
	c.hooks = h
	return c
}

// Context returns the underlying context (context.Background() for a nil
// receiver).
func (c *Ctx) Context() context.Context {
	if c == nil {
		return context.Background()
	}
	return c.ctx
}

// Cancelled reports whether work should stop: the context expired, the
// plan budget was exceeded, or measured memory crossed its budget. It is
// the cheap poll the enumerator issues at its cancellation points; a nil
// receiver is never cancelled.
func (c *Ctx) Cancelled() bool {
	if c == nil {
		return false
	}
	if c.overBudget.Load() {
		return true
	}
	if c.memExceeded() {
		return true
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// memExceeded polls measured usage against the memory budget, latching
// overMem so Err stays ErrMemBudgetExceeded even if usage later drops. The
// fault-injection point simulates budget exhaustion on the same latch, so a
// chaos plan exercises the abort-and-downgrade machinery without needing a
// query that really exhausts memory; disabled injection costs the
// enumerator's polls one atomic load.
func (c *Ctx) memExceeded() bool {
	if c.overMem.Load() {
		return true
	}
	if faultinject.Check(faultinject.PointMemBudget) != nil {
		c.overMem.Store(true)
		return true
	}
	if b := c.memBudget.Load(); b > 0 && c.held.Load()+c.live.Load() > b {
		c.overMem.Store(true)
		return true
	}
	return false
}

// Err returns why the compilation stopped: ErrBudgetExceeded,
// ErrMemBudgetExceeded, the context's error, or nil when still live
// (always nil for a nil receiver).
func (c *Ctx) Err() error {
	if c == nil {
		return nil
	}
	if c.overBudget.Load() {
		return ErrBudgetExceeded
	}
	if c.overMem.Load() {
		return ErrMemBudgetExceeded
	}
	return c.ctx.Err()
}

// Resources is a run's measured memory: current and peak bytes, total and
// durable — the deterministic MEMO content core.EstimateMemory predicts;
// the total adds the scratch the run held.
type Resources struct {
	UsedBytes        int64 `json:"used_bytes"`
	PeakBytes        int64 `json:"peak_bytes"`
	DurableUsedBytes int64 `json:"durable_used_bytes"`
	DurablePeakBytes int64 `json:"durable_peak_bytes"`
}

// Resources returns the run's memory so far (zero for a nil receiver).
func (c *Ctx) Resources() Resources {
	if c == nil {
		return Resources{}
	}
	return Resources{
		UsedBytes:        c.held.Load() + c.live.Load(),
		PeakBytes:        c.peak.Load(),
		DurableUsedBytes: c.durable.Load(),
		DurablePeakBytes: c.durablePeak.Load(),
	}
}

// SetLiveBytes publishes the running block's MEMO bytes, which the memory
// budget tests on top of what finished blocks hold. The enumerator calls it
// right before each poll.
func (c *Ctx) SetLiveBytes(n int64) {
	if c != nil {
		c.live.Store(n)
	}
}

// EndBlock adds a finished block to the run: its MEMO's bytes and peaks,
// and the scratch its driver used beside the MEMO — kept for the rest of
// the run, or freed at the block's end (then it counts for the peak only).
func (c *Ctx) EndBlock(m *memo.Memo, kept, freed int64) {
	if c == nil {
		return
	}
	held, durable := c.held.Load(), c.durable.Load()
	durablePeak, peak := m.Peaks()
	raise(&c.durablePeak, durable+durablePeak)
	raise(&c.peak, held+peak)
	held += m.Bytes() + kept
	raise(&c.peak, held+freed)
	c.held.Store(held)
	c.durable.Store(durable + m.DurableBytes())
	c.live.Store(0)
}

// raise lifts a peak to v. Only the goroutine running the Ctx's blocks
// writes peaks, so load-then-store does not race another raise.
func raise(peak *atomic.Int64, v int64) {
	if v > peak.Load() {
		peak.Store(v)
	}
}

// SetMemBudget arms the memory abort: once the run's measured bytes exceed
// n, Cancelled reports true and Err returns ErrMemBudgetExceeded. Values
// below 1 disarm the budget.
func (c *Ctx) SetMemBudget(n int64) {
	if c == nil {
		return
	}
	if n < 1 {
		n = 0
	}
	c.memBudget.Store(n)
}

// SetPredictedPlans records the COTE-predicted total generated-plan count,
// the denominator of the progress meter.
func (c *Ctx) SetPredictedPlans(n int64) {
	if c == nil {
		return
	}
	c.predicted.Store(n)
}

// SetPlanBudget arms the budget abort: once more than n plans have been
// generated, Cancelled reports true and Err returns ErrBudgetExceeded.
// Values below 1 disarm the budget.
func (c *Ctx) SetPlanBudget(n int64) {
	if c == nil {
		return
	}
	if n < 1 {
		n = 0
	}
	c.budget.Store(n)
}

// TickGenerated adds n generated plans to the progress counter, fires the
// progress hook, and trips the budget when the new total exceeds it. The
// plan generator calls it in batches, so per-plan cost stays at a local
// increment.
func (c *Ctx) TickGenerated(n int64) {
	if c == nil || n == 0 {
		return
	}
	total := c.generated.Add(n)
	if b := c.budget.Load(); b > 0 && total > b {
		c.overBudget.Store(true)
	}
	if c.hooks.OnProgress != nil {
		c.hooks.OnProgress(total, c.predicted.Load())
	}
}

// Progress returns the plans generated so far and the predicted total
// (0 when no prediction was installed).
func (c *Ctx) Progress() (generated, predicted int64) {
	if c == nil {
		return 0, 0
	}
	return c.generated.Load(), c.predicted.Load()
}

// Fraction returns generated/predicted clamped to [0, 1], or -1 when no
// prediction is available.
func (c *Ctx) Fraction() float64 {
	g, p := c.Progress()
	if p <= 0 {
		return -1
	}
	f := float64(g) / float64(p)
	if f > 1 {
		f = 1
	}
	return f
}

// RecordStage accumulates one stage's work.
func (c *Ctx) RecordStage(s Stage, count int64, elapsed time.Duration) {
	if c == nil || s < 0 || s >= NumStages {
		return
	}
	c.stageCount[s].Add(count)
	c.stageNS[s].Add(int64(elapsed))
}

// StageSnapshot returns the per-stage accumulated counts and timings.
func (c *Ctx) StageSnapshot() [NumStages]StageStats {
	var out [NumStages]StageStats
	if c == nil {
		return out
	}
	for s := range out {
		out[s] = StageStats{
			Count: c.stageCount[s].Load(),
			Time:  time.Duration(c.stageNS[s].Load()),
		}
	}
	return out
}
