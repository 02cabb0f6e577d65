// Package resource is the unified resource-accounting layer of the
// optimizer: every allocation site on the optimize and estimate paths — MEMO
// entries and their index bookkeeping, retained plans, interesting-property
// lists, plan arenas and scratch buffers — charges one Accountant, giving a
// single audited seam where optimizer memory is measured, budgeted and
// observed. The paper's Section 6.2 names optimizer memory estimation as a
// first-class application of the plan-count estimator; this package supplies
// the measured side of that comparison.
//
// Charges are split into two classes:
//
//   - durable kinds measure logical MEMO content — entries, retained plans,
//     property values — at fixed per-structure byte sizes. Durable charges
//     happen at deterministic points (entry creation, canonical-order plan
//     commit), so the durable high-water mark is bit-identical across runs
//     and pool states: it is the quantity
//     core.EstimateMemory predicts and the calibration loop fits against.
//   - KindScratch measures working memory newly allocated by the run: arena
//     chunks and scratch-buffer capacity. Pooled capacity reused within a
//     run (the arena free list, recycled buffers) is charged once when
//     created, never again per borrow; capacity inherited from the pool is
//     charged once when the run attaches it. Scratch is allocator-level and
//     therefore excluded from the determinism guarantee.
//
// The hot path is zero-alloc: an Accountant is a fixed block of atomic
// gauges, typically embedded by value in the per-run execution context, and
// every method is nil-receiver-safe so uninstrumented runs pay a single nil
// check per charge site.
package resource

import "sync/atomic"

// Kind classifies a charge by the structure that owns the bytes.
type Kind int

// The charge kinds.
const (
	// KindMemoEntry covers MEMO entries plus their index bookkeeping: the
	// entry struct, its index slot and its size-class slot.
	KindMemoEntry Kind = iota
	// KindPlan covers plans retained in MEMO entries (inserted and not yet
	// pruned). Charged at commit time, in canonical enumeration order.
	KindPlan
	// KindProperty covers interesting-property list values (the paper's ~4
	// bytes per order/partition value, Section 3.4).
	KindProperty
	// KindScratch covers run working memory: plan-arena chunks and reusable
	// scratch buffers. Allocator-level, not part of the durable mark.
	KindScratch
	NumKinds
)

// String names the kind as it appears in metrics.
func (k Kind) String() string {
	switch k {
	case KindMemoEntry:
		return "memo_entries"
	case KindPlan:
		return "plans"
	case KindProperty:
		return "properties"
	case KindScratch:
		return "scratch"
	}
	return "unknown"
}

// Durable reports whether the kind counts toward the deterministic durable
// high-water mark (everything but scratch).
func (k Kind) Durable() bool { return k != KindScratch }

// gauge is an atomic usage counter with a high-water mark.
type gauge struct {
	used atomic.Int64
	peak atomic.Int64
}

// add moves the gauge by n (negative releases) and advances the peak.
func (g *gauge) add(n int64) {
	u := g.used.Add(n)
	for {
		p := g.peak.Load()
		if u <= p || g.peak.CompareAndSwap(p, u) {
			return
		}
	}
}

// KindStats is one kind's snapshot.
type KindStats struct {
	UsedBytes int64 `json:"used_bytes"`
	PeakBytes int64 `json:"peak_bytes"`
}

// Snapshot is a point-in-time copy of every gauge.
type Snapshot struct {
	// UsedBytes / PeakBytes cover all kinds, scratch included.
	UsedBytes int64 `json:"used_bytes"`
	PeakBytes int64 `json:"peak_bytes"`
	// DurableUsedBytes / DurablePeakBytes cover the deterministic logical
	// MEMO content only — the measured side of core.EstimateMemory.
	DurableUsedBytes int64 `json:"durable_used_bytes"`
	DurablePeakBytes int64 `json:"durable_peak_bytes"`
	// Kinds indexes per-structure stats by Kind.
	Kinds [NumKinds]KindStats `json:"-"`
}

// Accountant tracks the bytes the optimizer's data structures hold: a total
// gauge, a durable gauge, and one gauge per kind, each with its high-water
// mark. The zero value is ready to use; all methods are goroutine-safe and
// nil-receiver-safe (a nil Accountant ignores charges and reads as zero).
type Accountant struct {
	total   gauge
	durable gauge
	kinds   [NumKinds]gauge
}

// New returns a zeroed Accountant. Embedding one by value (as optctx.Ctx
// does) avoids even this allocation.
func New() *Accountant { return &Accountant{} }

// Charge records n bytes of kind k coming into use. Negative n releases.
func (a *Accountant) Charge(k Kind, n int64) {
	if a == nil || n == 0 {
		return
	}
	a.kinds[k].add(n)
	a.total.add(n)
	if k.Durable() {
		a.durable.add(n)
	}
}

// Release records n bytes of kind k going out of use.
func (a *Accountant) Release(k Kind, n int64) { a.Charge(k, -n) }

// Used returns the bytes currently in use across all kinds.
func (a *Accountant) Used() int64 {
	if a == nil {
		return 0
	}
	return a.total.used.Load()
}

// Peak returns the high-water mark of Used.
func (a *Accountant) Peak() int64 {
	if a == nil {
		return 0
	}
	return a.total.peak.Load()
}

// DurableUsed returns the logical MEMO content bytes currently in use.
func (a *Accountant) DurableUsed() int64 {
	if a == nil {
		return 0
	}
	return a.durable.used.Load()
}

// DurablePeak returns the high-water mark of DurableUsed — the deterministic
// measured quantity the memory model is calibrated against.
func (a *Accountant) DurablePeak() int64 {
	if a == nil {
		return 0
	}
	return a.durable.peak.Load()
}

// KindUsed returns the bytes of kind k currently in use.
func (a *Accountant) KindUsed(k Kind) int64 {
	if a == nil || k < 0 || k >= NumKinds {
		return 0
	}
	return a.kinds[k].used.Load()
}

// KindPeak returns the high-water mark of kind k.
func (a *Accountant) KindPeak(k Kind) int64 {
	if a == nil || k < 0 || k >= NumKinds {
		return 0
	}
	return a.kinds[k].peak.Load()
}

// Snapshot copies every gauge.
func (a *Accountant) Snapshot() Snapshot {
	var s Snapshot
	if a == nil {
		return s
	}
	s.UsedBytes = a.total.used.Load()
	s.PeakBytes = a.total.peak.Load()
	s.DurableUsedBytes = a.durable.used.Load()
	s.DurablePeakBytes = a.durable.peak.Load()
	for k := range s.Kinds {
		s.Kinds[k] = KindStats{
			UsedBytes: a.kinds[k].used.Load(),
			PeakBytes: a.kinds[k].peak.Load(),
		}
	}
	return s
}

// Reset zeroes every gauge and high-water mark, returning the Accountant to
// its initial state for pooled reuse.
func (a *Accountant) Reset() {
	if a == nil {
		return
	}
	a.total.used.Store(0)
	a.total.peak.Store(0)
	a.durable.used.Store(0)
	a.durable.peak.Store(0)
	for k := range a.kinds {
		a.kinds[k].used.Store(0)
		a.kinds[k].peak.Store(0)
	}
}
