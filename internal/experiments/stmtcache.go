package experiments

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"cote/internal/lru"
	"cote/internal/query"
)

// StatementCache is the straightforward alternative the paper's Section 1.2
// dismisses: "cache the compilation time for each compiled query in a
// statement cache and use it as an estimate for subsequent similar queries".
// It works for exact repeats and fails for the ad-hoc variations the COTE
// targets — the included tests and benchmarks demonstrate both halves.
//
// Queries are keyed by a structural signature (tables, join and local
// predicate shapes, clause column counts); any variation — an extra
// predicate, a different literal's selectivity class, one more ORDER BY
// column — produces a different key and therefore a miss, even though the
// compilation time may barely differ, and conversely a hit can be badly
// wrong when only the statistics changed.
//
// The cache is bounded (least-recently-used eviction) and safe for
// concurrent use: an instantiation of lru.SingleFlight using only its
// counted Get and Put.
type StatementCache struct {
	sf *lru.SingleFlight[string, time.Duration]
}

// NewStatementCache returns an empty cache evicting beyond capacity entries
// (capacities below 1 are raised to 1).
func NewStatementCache(capacity int) *StatementCache {
	return &StatementCache{sf: lru.NewSingleFlight[string, time.Duration](capacity)}
}

// Signature computes the structural cache key of a query.
func Signature(blk *query.Block) string {
	var b strings.Builder
	for _, sub := range blk.Blocks() {
		b.WriteByte('[')
		for _, t := range sub.Tables {
			if t.Table != nil {
				b.WriteString(t.Table.Name)
			} else {
				b.WriteString("<derived>")
			}
			b.WriteByte(',')
		}
		b.WriteByte('|')
		// Join predicates, canonically ordered.
		var preds []string
		for _, jp := range sub.JoinPreds {
			if jp.Implied {
				continue
			}
			l, r := int(jp.Left), int(jp.Right)
			if l > r {
				l, r = r, l
			}
			preds = append(preds, strconv.Itoa(l)+jp.Op.String()+strconv.Itoa(r))
		}
		sort.Strings(preds)
		b.WriteString(strings.Join(preds, ","))
		b.WriteByte('|')
		locals := 0
		for _, lp := range sub.LocalPreds {
			if !lp.Implied {
				locals++
			}
		}
		b.WriteString(strconv.Itoa(locals))
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(len(sub.GroupBy)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(len(sub.OrderBy)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(sub.FirstN))
		b.WriteByte(']')
	}
	return b.String()
}

// Lookup returns the cached compilation time for a structurally identical
// query, if one was recorded (and not yet evicted).
func (c *StatementCache) Lookup(blk *query.Block) (time.Duration, bool) {
	return c.sf.Get(Signature(blk))
}

// Record stores the measured compilation time of a query, evicting the
// least recently used statement when the cache is full.
func (c *StatementCache) Record(blk *query.Block, actual time.Duration) {
	c.sf.Put(Signature(blk), actual)
}

// Stats returns the hit/miss counts observed so far and the current size
// and capacity.
func (c *StatementCache) Stats() lru.Stats { return c.sf.Stats() }
