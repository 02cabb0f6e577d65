package service

import (
	"context"

	"cote/internal/core"
	"cote/internal/faultinject"
	"cote/internal/fingerprint"
	"cote/internal/lru"
	"cote/internal/opt"
)

// EstimateKey identifies one cacheable estimate.
//
// Key scheme — the fix for the raw-SQL keying bug class the cache shipped
// with (the old key was catalogName|level|nodes|Signature(sql)):
//
//   - FP is the canonical structural fingerprint of the parsed query
//     (internal/fingerprint). Two spellings differing in whitespace,
//     aliasing, literal values or join-clause order collapse to one entry,
//     and — because the fingerprint embeds every estimation-relevant schema
//     fact (row counts, NDVs at referenced columns, indexes, partitioning)
//     but never the catalog *name* — two catalogs registered under
//     different names with identical schemas share entries.
//   - Epoch invalidates on catalog re-upload: re-registering a name bumps
//     its RegistryEntry.Epoch to a fresh process-unique value, so entries
//     cached against the old statistics can never be served again, while
//     built-ins and first registrations (epoch 0) keep sharing.
//   - Level and Nodes are the request options that change plan counts.
//     The serving path fixes the remaining core.Options knobs at their
//     defaults, so they do not appear here (core.FPKey carries them for
//     library users).
//
// Soundness of fingerprint keying rests on the canonical rebuild: the
// server estimates fingerprint.Canonical(blk), for which fingerprint
// equality implies identical plan counts by construction.
type EstimateKey struct {
	Epoch uint64
	FP    fingerprint.FP
	Level opt.Level
	Nodes int
}

// EstimateCache is the serving layer's instantiation of lru.SingleFlight: a
// goroutine-safe bounded LRU of estimation results keyed by EstimateKey, in
// which N concurrent requests for the same key run one enumeration while N-1
// wait for its result.
//
// Cached estimates are stored without a time prediction — the server's
// model can be recalibrated at any moment, so PredictedTime is recomputed
// from the cached counts on every response rather than frozen at insert.
type EstimateCache struct {
	sf *lru.SingleFlight[EstimateKey, *core.Estimate]
}

// NewEstimateCache returns an empty cache evicting beyond capacity entries.
func NewEstimateCache(capacity int) *EstimateCache {
	return &EstimateCache{lru.NewSingleFlight[EstimateKey, *core.Estimate](capacity)}
}

// Do is lru.SingleFlight.Do behind the cache.fill fault point: the fill is
// the flight's one side-effectful step, so an injected fault fails the
// leader before the enumeration runs and — exactly like a real failure —
// propagates to every waiter sharing the flight while caching nothing.
// Callers must not mutate the returned Estimate.
func (c *EstimateCache) Do(ctx context.Context, key EstimateKey, fn func() (*core.Estimate, error)) (est *core.Estimate, hit, shared bool, err error) {
	return c.sf.Do(ctx, key, func() (*core.Estimate, error) {
		if err := faultinject.Check(faultinject.PointCacheFill); err != nil {
			return nil, err
		}
		return fn()
	})
}

// Stats returns the hit/miss/shared-flight counts, size and capacity.
func (c *EstimateCache) Stats() lru.Stats { return c.sf.Stats() }
