package core

import (
	"context"
	"time"

	"cote/internal/enum"
	"cote/internal/faultinject"
	"cote/internal/fingerprint"
	"cote/internal/lru"
	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/props"
	"cote/internal/query"
)

// FPKey identifies one memoizable estimation: the structural fingerprint of
// the query plus every knob that changes plan counts at a given level.
// Options.Model is deliberately excluded — the time model is linear in the
// counts and is re-applied per request — as is Options.Exec (cancellation
// bounds a run, it does not change its result).
type FPKey struct {
	FP                 fingerprint.FP
	Level              opt.Level
	Nodes              int
	OrderPolicy        props.GenerationPolicy
	ListMode           ListMode
	PropagateEveryJoin bool
	Cartesian          enum.CartesianPolicy
}

// KeyFor builds the cache key for estimating a query with fingerprint fp
// under opts, normalizing the knobs the same way EstimatePlans does (nil
// config = serial, LevelLow = LevelHighInner2).
func KeyFor(fp fingerprint.FP, opts Options) FPKey {
	nodes := 1
	if opts.Config != nil && opts.Config.Nodes > 1 {
		nodes = opts.Config.Nodes
	}
	return FPKey{
		FP:                 fp,
		Level:              opts.level(),
		Nodes:              nodes,
		OrderPolicy:        opts.OrderPolicy,
		ListMode:           opts.ListMode,
		PropagateEveryJoin: opts.PropagateEveryJoin,
		Cartesian:          opts.CartesianPolicy,
	}
}

// FingerprintCache memoizes plan-count estimates across structurally
// identical queries: a hit skips join enumeration entirely and only
// re-applies the linear time model, turning a repeat estimate into an LRU
// lookup.
//
// Soundness rests on canonicalization, not just hashing: enumeration counts
// are NOT invariant under table renumbering (first-join-only property
// propagation follows the bitset order, and the floating-point cardinality
// accumulation can tip the card-one Cartesian threshold), so the cache
// estimates fingerprint.Canonical(blk) — the deterministic rebuild every
// structurally equal query maps to byte-for-byte. Fingerprint equality
// therefore implies identical counts by construction, and a hit returns
// exactly what a fresh run of the same structure would.
//
// The cache is an instantiation of lru.SingleFlight: safe for concurrent
// use, with concurrent misses on one key collapsed into one enumeration.
type FingerprintCache struct {
	sf *lru.SingleFlight[FPKey, *Estimate]
}

// DefaultFingerprintCacheSize bounds a cache built with capacity <= 0.
const DefaultFingerprintCacheSize = 1024

// NewFingerprintCache returns a cache holding at most capacity estimates
// (DefaultFingerprintCacheSize when capacity <= 0).
func NewFingerprintCache(capacity int) *FingerprintCache {
	if capacity <= 0 {
		capacity = DefaultFingerprintCacheSize
	}
	return &FingerprintCache{sf: lru.NewSingleFlight[FPKey, *Estimate](capacity)}
}

// EstimatePlans is the memoizing counterpart of core.EstimatePlans. It
// analyzes blk once, looks up (fingerprint, level, knobs), and on a miss
// rebuilds the canonical block from the same analysis and runs the
// enumerator over it. The returned hit flag reports whether this call
// skipped enumeration (an LRU hit, or a wait on a concurrent caller's run).
//
// The returned Estimate is a private top-level copy, priced with opts.Model
// and with Elapsed set to this call's wall time (a hit's Elapsed is the
// lookup cost, microseconds, not the original enumeration). Its Blocks
// slice is shared with the cache and must be treated as read-only; the
// block pointers inside reference the canonical rebuild, not blk itself.
func (c *FingerprintCache) EstimatePlans(blk *query.Block, opts Options) (*Estimate, bool, error) {
	start := time.Now()
	// A lookup needs only the hash; the canonical rebuild — several times the
	// cost of hashing — is deferred to the miss path, where the enumeration
	// it feeds dwarfs it anyway.
	a := fingerprint.Analyze(blk)
	est, hit, shared, err := c.sf.Do(opts.Exec.Context(), KeyFor(a.FP, opts), func() (*Estimate, error) {
		// A miss is the cache's fill path; the injection point fails it
		// before the canonical rebuild so a chaos plan can prove callers
		// survive a memoization layer that errors instead of computing.
		if err := faultinject.Check(faultinject.PointFPCacheFill); err != nil {
			return nil, err
		}
		canon, err := a.Canonical()
		if err != nil {
			return nil, err
		}
		runOpts := opts
		runOpts.Model = nil // cache unpriced; every return path re-prices
		return EstimatePlans(canon, runOpts)
	})
	if err != nil {
		return nil, false, err
	}
	return priced(est, opts, time.Since(start)), hit || shared, nil
}

// EstimatePlansCtx is EstimatePlans bounded by a context: a miss stops
// cooperatively when ctx expires, and so does a wait on another caller's
// run of the same key; hits never block.
func (c *FingerprintCache) EstimatePlansCtx(ctx context.Context, blk *query.Block, opts Options) (*Estimate, bool, error) {
	opts.Exec = optctx.New(ctx)
	return c.EstimatePlans(blk, opts)
}

// priced returns a top-level copy of est with the caller's model applied
// and the given wall time.
func priced(est *Estimate, opts Options, elapsed time.Duration) *Estimate {
	out := *est
	out.Elapsed = elapsed
	out.PredictedTime = 0
	if opts.Model != nil {
		out.PredictedTime = opts.Model.Predict(out.Counts)
	}
	return &out
}

// Stats reports the cache's lifetime hit/miss/shared-flight counters and
// current occupancy.
func (c *FingerprintCache) Stats() lru.Stats { return c.sf.Stats() }
