package cost

import (
	"fmt"
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
)

// oracleSimple is the simple-mode estimator as it was while it memoized per
// table set: JoinCard looked both inputs up in a map it also stored the
// union in. Bodies verbatim apart from the receiver.
type oracleSimple struct {
	*Estimator
	cache map[bitset.Set]float64
}

func (e *oracleSimple) JoinCard(s, l bitset.Set) float64 {
	union := s.Union(l)
	if c, ok := e.cache[union]; ok {
		return c
	}
	card := e.Card(s) * e.Card(l)
	e.predBuf = e.blk.AppendPredsBetween(e.predBuf[:0], s, l)
	for _, pi := range e.predBuf {
		card *= e.joinSel[pi]
	}
	if card < 0.01 {
		card = 0.01
	}
	e.cache[union] = card
	return card
}

func (e *oracleSimple) Card(s bitset.Set) float64 {
	if c, ok := e.cache[s]; ok {
		return c
	}
	card := 1.0
	for t := s.Next(0); t >= 0; t = s.Next(t + 1) {
		card *= e.filtered[t]
	}
	for _, pi := range e.blk.AppendPredsWithin(nil, s) {
		card *= e.joinSel[pi]
	}
	if card < 0.01 {
		card = 0.01
	}
	e.cache[s] = card
	return card
}

// joinCardBlock joins n tables of the given row counts along edges, two
// predicates per edge on columns of 3 to 30-odd distinct values. The callers
// pick row counts that leave some sets with honest cardinalities and push
// others to the 0.01 floor.
func joinCardBlock(t *testing.T, name string, n int, rows func(i int) float64, edges [][2]int) *query.Block {
	t.Helper()
	cb := catalog.NewBuilder(name)
	for i := 0; i < n; i++ {
		tb := cb.Table(fmt.Sprintf("t%d", i), rows(i))
		for c := 0; c < 2*n; c++ {
			tb.Column(fmt.Sprintf("c%d", c), float64(3+2*c))
		}
	}
	qb := query.NewBuilder(name, cb.Build())
	for i := 0; i < n; i++ {
		qb.AddTable(fmt.Sprintf("t%d", i), "")
	}
	for _, e := range edges {
		for j := 0; j < 2; j++ {
			qb.Join(qb.ColByTableIndex(e[0], 2*e[1]+j), qb.ColByTableIndex(e[1], 2*e[0]+j), query.Eq)
		}
	}
	qb.Filter(qb.ColByTableIndex(n-1, 0), query.Eq, 0)
	return qb.MustBuild()
}

// TestSimpleJoinCardMatchesMemoizedWalk composes every ordered pair of
// disjoint table sets of a 7-table clique and an 8-table chain from the
// cardinalities a MEMO would hold for them — each set's value is the one its
// first split in dynamic-programming order produced, as it is on an entry —
// and requires the bits the memoized walk returned for that pair.
func TestSimpleJoinCardMatchesMemoizedWalk(t *testing.T) {
	var clique7, chain8 [][2]int
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			clique7 = append(clique7, [2]int{i, j})
		}
	}
	for i := 0; i+1 < 8; i++ {
		chain8 = append(chain8, [2]int{i, i + 1})
	}
	for _, blk := range []*query.Block{
		joinCardBlock(t, "clique7", 7, func(i int) float64 { return float64(3 + i*i*i*9700) }, clique7),
		joinCardBlock(t, "chain8", 8, func(i int) float64 { return float64(2 + 3*i) }, chain8),
	} {
		e := NewEstimator(blk, Simple)
		if e.cache != nil {
			t.Fatal("a simple-mode estimator allocated its per-set map")
		}
		oracle := &oracleSimple{NewEstimator(blk, Simple), map[bitset.Set]float64{}}
		n := blk.NumTables()
		full := blk.AllTables()

		// entry[s] is the cardinality the MEMO entry of s caches.
		entry := make([]float64, full+1)
		bySize := make([][]bitset.Set, n+1)
		for s := bitset.Set(1); s <= full; s++ {
			bySize[s.Len()] = append(bySize[s.Len()], s)
		}
		for _, s := range bySize[1] {
			entry[s] = e.Card(s)
			if got := oracle.Card(s); !sameBits(entry[s], got) {
				t.Fatalf("%s: Card(%v) = %v, memoized walk %v", blk.Name, s, entry[s], got)
			}
		}
		pairs, floored := 0, 0
		for k := 2; k <= n; k++ {
			for i := 1; i < k; i++ {
				for _, s := range bySize[i] {
					for _, l := range bySize[k-i] {
						if s.Overlaps(l) {
							continue
						}
						union := s.Union(l)
						// The walk recomputes from its memoized inputs only
						// while the union is unknown to it.
						first, seen := oracle.cache[union]
						delete(oracle.cache, union)
						want := oracle.JoinCard(s, l)
						got := e.JoinCard(s, l, entry[s], entry[l])
						if !sameBits(got, want) {
							t.Fatalf("%s: JoinCard(%v, %v) = %v, memoized walk %v", blk.Name, s, l, got, want)
						}
						if seen {
							oracle.cache[union] = first
						} else {
							entry[union] = got
						}
						pairs++
						if got == 0.01 {
							floored++
						}
					}
				}
			}
		}
		if floored == 0 || floored > pairs*9/10 {
			t.Fatalf("%s: %d of %d pairs at the 0.01 floor, want some and not all", blk.Name, floored, pairs)
		}
		t.Logf("%s: %d ordered pairs, %d at the floor", blk.Name, pairs, floored)
	}
}
