package service

import (
	"cote/internal/core"
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
//     The serving path fixes every other core.Options knob at its default,
//     so none of them needs a place in the key.
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

// EstimateCache is the one estimate cache: a goroutine-safe bounded LRU of
// estimation results keyed by EstimateKey, in which N concurrent requests
// for the same key run one enumeration while N-1 wait for its result.
//
// Cached estimates are stored without a time prediction — the server's
// model can be recalibrated at any moment, so price recomputes the
// prediction from the cached counts on every response rather than freezing
// it at insert. Callers must not mutate a returned Estimate.
type EstimateCache = lru.SingleFlight[EstimateKey, *core.Estimate]

// NewEstimateCache returns an empty cache evicting beyond capacity entries.
func NewEstimateCache(capacity int) *EstimateCache {
	return lru.NewSingleFlight[EstimateKey, *core.Estimate](capacity)
}
