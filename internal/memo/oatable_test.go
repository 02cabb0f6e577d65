package memo

import (
	"math/rand"
	"sync"
	"testing"

	"cote/internal/bitset"
)

// oracleMemo is the map-based reference the open-addressed index is checked
// against: the exact structure the Memo used before the rewrite.
type oracleMemo struct {
	entries map[bitset.Set]bool
	bySize  [][]bitset.Set // creation order within each size class
}

func newOracle(n int) *oracleMemo {
	return &oracleMemo{
		entries: map[bitset.Set]bool{},
		bySize:  make([][]bitset.Set, n+1),
	}
}

func (o *oracleMemo) getOrCreate(s bitset.Set) (created bool) {
	if o.entries[s] {
		return false
	}
	o.entries[s] = true
	o.bySize[s.Len()] = append(o.bySize[s.Len()], s)
	return true
}

// randomSet draws a set over n tables, biased toward small sizes like real
// enumeration, occasionally empty (the zero key must index correctly too).
func randomSet(rng *rand.Rand, n int) bitset.Set {
	var s bitset.Set
	k := rng.Intn(n + 1)
	for i := 0; i < k; i++ {
		s = s.Add(rng.Intn(n))
	}
	return s
}

// TestOpenAddressedDifferential drives one pooled MEMO through random
// rounds of insert/lookup against the map oracle, Reset between rounds to a
// random table count — including shrink-then-grow patterns — verifying the
// open-addressed index and the size classes agree with the oracle after
// every operation batch.
func TestOpenAddressedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(2) // deliberately small: rounds below force regrowth and reuse
	for round := 0; round < 60; round++ {
		n := 1 + rng.Intn(14)
		m.Reset(n)
		o := newOracle(n)
		ops := 1 + rng.Intn(200)
		for i := 0; i < ops; i++ {
			s := randomSet(rng, n)
			wantCreated := o.getOrCreate(s)
			e, created := m.GetOrCreate(s)
			if created != wantCreated {
				t.Fatalf("round %d: GetOrCreate(%v) created=%v, oracle %v", round, s, created, wantCreated)
			}
			if e.Tables != s {
				t.Fatalf("round %d: GetOrCreate(%v) returned tables %v", round, s, e.Tables)
			}
			// Random lookups, present and absent.
			probe := randomSet(rng, n)
			present := o.entries[probe]
			if got := m.Entry(probe); (got != nil) != present {
				t.Fatalf("round %d: Entry(%v) = %v, oracle present=%v", round, probe, got, present)
			} else if present && got.Tables != probe {
				t.Fatalf("round %d: Entry(%v) returned tables %v", round, probe, got.Tables)
			}
		}
		if m.NumEntries() != len(o.entries) {
			t.Fatalf("round %d: NumEntries %d, oracle %d", round, m.NumEntries(), len(o.entries))
		}
		for k := 0; k <= n; k++ {
			group := m.OfSize(k)
			if len(group) != len(o.bySize[k]) {
				t.Fatalf("round %d: OfSize(%d) has %d entries, oracle %d", round, k, len(group), len(o.bySize[k]))
			}
			for i, e := range group {
				if e.Tables != o.bySize[k][i] {
					t.Fatalf("round %d: OfSize(%d)[%d] = %v, oracle %v", round, k, i, e.Tables, o.bySize[k][i])
				}
			}
		}
	}
}

// TestResetCleansSlabEntries pins the pooled-reuse contract of the slab:
// after a Reset, re-created entries start from the zero state (no stale
// plans, orders, partitions, cards or flags from the previous run), even
// though their backing storage is reused.
func TestResetCleansSlabEntries(t *testing.T) {
	m := New(4)
	for i := 0; i < 3; i++ {
		s := bitset.Of(0, 1)
		e, _ := m.GetOrCreate(s)
		e.Card = 42
		e.PropsPropagated = true
		e.Neighbors = bitset.Of(2)
		m.InsertPlan(e, &Plan{Op: OpNLJN, Tables: s})
		m.Reset(4)
		e2, created := m.GetOrCreate(s)
		if !created {
			t.Fatal("entry survived Reset")
		}
		if e2.Card != 0 || e2.PropsPropagated || !e2.Neighbors.Empty() ||
			len(e2.Plans) != 0 || e2.Orders.Len() != 0 || e2.Parts.Len() != 0 {
			t.Fatalf("reused slab entry not clean: %+v", e2)
		}
		if !e2.OuterEligible {
			t.Fatal("recreated entry lost the OuterEligible default")
		}
	}
}

// TestPooledMemosDoNotAliasSlabs runs concurrent goroutines, each cycling
// MEMOs through a shared pool, writing a goroutine-unique sentinel into
// every entry and re-checking it after the fill. If two live memos ever
// handed out aliasing slab storage the sentinels would clash — and the
// concurrent writes would trip the race detector.
func TestPooledMemosDoNotAliasSlabs(t *testing.T) {
	pool := sync.Pool{New: func() any { return New(0) }}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for round := 0; round < 50; round++ {
				m := pool.Get().(*Memo)
				n := 2 + rng.Intn(10)
				m.Reset(n)
				var sets []bitset.Set
				for i := 0; i < 40; i++ {
					s := randomSet(rng, n)
					if s.Empty() {
						continue
					}
					e, created := m.GetOrCreate(s)
					if created {
						sets = append(sets, s)
					}
					e.Card = float64(id + 1)
				}
				for _, s := range sets {
					if e := m.Entry(s); e == nil || e.Card != float64(id+1) {
						t.Errorf("goroutine %d: entry %v corrupted (aliased slab?): %+v", id, s, e)
						return
					}
				}
				pool.Put(m)
			}
		}(g)
	}
	wg.Wait()
}
