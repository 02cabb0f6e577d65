package props

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
)

// Differential tests of the scope's interest answers. The future-join-column
// walk they used to come from is kept below as the oracle, body verbatim
// apart from its memo and lock. (The join-column walk's oracle sits with the
// code that replaced it, in query/predsets_test.go.)

// --- oracles: the scope before the predicate sets ---

func oracleFutureJoinCols(sc *Scope, s bitset.Set) []query.ColID {
	out := []query.ColID{}
	for _, i := range sc.eqPreds {
		p := sc.blk.JoinPreds[i]
		lt, rt := sc.blk.Column(p.Left).Ref.Index, sc.blk.Column(p.Right).Ref.Index
		switch {
		case s.Contains(lt) && !s.Contains(rt):
			out = append(out, p.Left)
		case s.Contains(rt) && !s.Contains(lt):
			out = append(out, p.Right)
		}
	}
	return out
}

func oracleFutureJoinInterest(sc *Scope, o Order, s bitset.Set, eq *query.Equiv) bool {
	for _, c := range oracleFutureJoinCols(sc, s) {
		if eq.Same(o.Cols[0], c) {
			return true
		}
	}
	return false
}

func oraclePartitionUseful(sc *Scope, p Partition, s bitset.Set, eq *query.Equiv) bool {
	if p.Empty() {
		return false
	}
	if p.CoversJoinCols(oracleFutureJoinCols(sc, s), eq) {
		return true
	}
	if gb := sc.blk.GroupBy; len(gb) > 0 {
		if (Order{Cols: p.Cols}).SetSubsetOfUnder(Order{Cols: gb}, eq) {
			return true
		}
	}
	return false
}

// --- the blocks ---

// oracleBlock joins n tables along edges with preds predicates per edge (one
// in seven a <), grouped on two columns of table 1. With shared columns the
// transitive closure adds implied predicates.
func oracleBlock(t testing.TB, name string, n, preds int, shared bool, edges [][2]int) *query.Block {
	t.Helper()
	cb := catalog.NewBuilder(name)
	for i := 0; i < n; i++ {
		tb := cb.Table(fmt.Sprintf("t%d", i), 1000)
		for c := 0; c < n*preds; c++ {
			tb.Column(fmt.Sprintf("c%d", c), 50)
		}
	}
	qb := query.NewBuilder(name, cb.Build())
	for i := 0; i < n; i++ {
		qb.AddTable(fmt.Sprintf("t%d", i), "")
	}
	k := 0
	for _, e := range edges {
		for j := 0; j < preds; j++ {
			lc, rc := e[1]*preds+j, e[0]*preds+j
			if shared {
				lc, rc = j, j
			}
			op := query.Eq
			if k++; k%7 == 0 {
				op = query.Lt
			}
			qb.Join(qb.ColByTableIndex(e[0], lc), qb.ColByTableIndex(e[1], rc), op)
		}
	}
	qb.GroupBy(qb.ColByTableIndex(1, 0), qb.ColByTableIndex(1, 1))
	blk, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func oracleBlocks(t testing.TB) []*query.Block {
	var chain7, star8, clique6, random7 [][2]int
	for i := 0; i+1 < 7; i++ {
		chain7 = append(chain7, [2]int{i + 1, i})
	}
	for i := 1; i < 8; i++ {
		star8 = append(star8, [2]int{0, i})
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			clique6 = append(clique6, [2]int{j, i})
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 1; i < 7; i++ {
		random7 = append(random7, [2]int{i, rng.Intn(i)})
	}
	random7 = append(random7, [2]int{0, 5}, [2]int{6, 2}, [2]int{3, 1})
	rng.Shuffle(len(random7), func(i, j int) { random7[i], random7[j] = random7[j], random7[i] })
	return []*query.Block{
		oracleBlock(t, "chain7x2", 7, 2, false, chain7),
		oracleBlock(t, "star8", 8, 1, false, star8),
		oracleBlock(t, "clique6x2", 6, 2, false, clique6),
		oracleBlock(t, "random7", 7, 1, false, random7),
		oracleBlock(t, "chain7implied", 7, 2, true, chain7),
		oracleBlock(t, "random7implied", 7, 1, true, random7),
	}
}

func TestScopeMatchesOracle(t *testing.T) {
	for _, blk := range oracleBlocks(t) {
		sc := NewScope(blk)
		ncols := query.ColID(len(blk.Columns))
		full := blk.AllTables()
		for s := bitset.Set(0); s <= full; s++ {
			eq := blk.EquivWithin(s)
			for c := query.ColID(0); c < ncols; c++ {
				next := (c + 1) % ncols
				for _, o := range []Order{OrderOn(c), OrderOn(c, next)} {
					if got, want := sc.OrderInterest(o, eq).FutureJoin, oracleFutureJoinInterest(sc, o, s, eq); got != want {
						t.Fatalf("%s set %v order %v: future-join interest %v, oracle %v", blk.Name, s, o, got, want)
					}
				}
				for _, p := range []Partition{PartitionOn(4, c), PartitionOn(4, c, next)} {
					if got, want := sc.PartitionUseful(p, eq), oraclePartitionUseful(sc, p, s, eq); got != want {
						t.Fatalf("%s set %v partition %v: useful %v, oracle %v", blk.Name, s, p.Cols, got, want)
					}
				}
			}
		}
	}
}

// TestScopeSharedLockFree reads one scope and one set of equivalences from
// several goroutines at once, as the parallel DP round's workers do: the
// scope holds no memo and no lock any more, so under -race this is the test
// that it is in fact only read.
func TestScopeSharedLockFree(t *testing.T) {
	blk := oracleBlocks(t)[2]
	sc := NewScope(blk)
	full := blk.AllTables()
	eqs := make([]*query.Equiv, full+1)
	want := make([][]query.ColID, full+1) // join columns toward the rest, read serially
	for s := bitset.Set(0); s <= full; s++ {
		eqs[s] = blk.EquivWithin(s)
		want[s], _ = blk.AppendJoinCols(s, full.Diff(s), nil, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var oc, ic []query.ColID
			for s := bitset.Set(1); s < full; s++ {
				oc, ic = blk.AppendJoinCols(s, full.Diff(s), oc[:0], ic[:0])
				if !slices.Equal(oc, want[s]) {
					t.Errorf("goroutine %d: %v: join columns %v, serial read %v", g, s, oc, want[s])
					return
				}
				for _, c := range oc {
					if !sc.OrderUseful(OrderOn(c), eqs[s]) {
						t.Errorf("goroutine %d: %v: order on join column %d not useful", g, s, c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
