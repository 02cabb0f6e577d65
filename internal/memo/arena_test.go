package memo

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
)

// arenaBlock builds an n-table clique whose tables have cols columns each,
// the first n of them join columns — the size knobs of the representative
// arena: entries (2^n - 1 when every subset is created) × n*cols columns.
func arenaBlock(t testing.TB, n, cols int) *query.Block {
	t.Helper()
	name := fmt.Sprintf("arena%dx%d", n, cols)
	cb := catalog.NewBuilder(name)
	for i := 0; i < n; i++ {
		tb := cb.Table(fmt.Sprintf("t%d", i), 1000)
		for c := 0; c < cols; c++ {
			tb.Column(fmt.Sprintf("c%d", c), 50)
		}
	}
	qb := query.NewBuilder(name, cb.Build())
	for i := 0; i < n; i++ {
		qb.AddTable(fmt.Sprintf("t%d", i), "")
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			qb.Join(qb.ColByTableIndex(a, b), qb.ColByTableIndex(b, a), query.Eq)
		}
	}
	blk, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// fillAll resets m for blk and creates the entry of every non-empty table
// set with its equivalence, as an enumeration of a clique does.
func fillAll(m *Memo, blk *query.Block) {
	m.Reset(blk.NumTables())
	for s := bitset.Set(1); s <= blk.AllTables(); s++ {
		e, _ := m.GetOrCreate(s)
		m.InitEquiv(e, blk)
	}
}

// checkEquivs compares every live entry's equivalence with one computed
// afresh in storage of its own. Two entries sharing arena storage, or an
// entry handed storage a later one was also given, shows as the earlier
// entry answering with the later one's classes.
func checkEquivs(t *testing.T, m *Memo, blk *query.Block, when string) {
	t.Helper()
	for _, e := range m.Entries() {
		want := blk.EquivWithin(e.Tables)
		for c := query.ColID(0); int(c) < len(blk.Columns); c++ {
			if e.Equiv.Rep(c) != want.Rep(c) || e.Equiv.FutureJoin(c) != want.FutureJoin(c) {
				t.Fatalf("%s: entry %v column %d: rep %d future-join %v, fresh %d %v",
					when, e.Tables, c, e.Equiv.Rep(c), e.Equiv.FutureJoin(c), want.Rep(c), want.FutureJoin(c))
			}
		}
	}
}

func TestArenaEntriesDoNotShareStorage(t *testing.T) {
	blk := arenaBlock(t, 7, 9)
	m := New(0)
	fillAll(m, blk)
	if m.NumEntries() != 127 {
		t.Fatalf("%d entries, want 127", m.NumEntries())
	}
	checkEquivs(t, m, blk, "first run")
	// 127 entries in chunks of repChunkEntries, none larger than that.
	if want := (127 + repChunkEntries - 1) / repChunkEntries; len(m.reps.chunks) != want {
		t.Fatalf("%d arena chunks, want %d", len(m.reps.chunks), want)
	}
	for i, c := range m.reps.chunks {
		if len(c) != repChunkEntries*len(blk.Columns) {
			t.Fatalf("chunk %d holds %d elements, want %d entries × %d columns", i, len(c), repChunkEntries, len(blk.Columns))
		}
	}
}

// TestArenaSteadyStateAllocatesNothing is the pooled estimate MEMO's
// contract: once a MEMO has served a block, serving it (or a smaller one)
// again allocates nothing — not for entries, not for their equivalences.
func TestArenaSteadyStateAllocatesNothing(t *testing.T) {
	big, small := arenaBlock(t, 7, 9), arenaBlock(t, 5, 6)
	m := New(0)
	fillAll(m, big)
	if avg := testing.AllocsPerRun(10, func() { fillAll(m, big) }); avg != 0 {
		t.Fatalf("refilling a warm MEMO = %.0f allocs, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { fillAll(m, small) }); avg != 0 {
		t.Fatalf("filling a warm MEMO with a smaller block = %.0f allocs, want 0", avg)
	}
	checkEquivs(t, m, small, "smaller block on warm arena")
}

// TestArenaResetAcrossBlockSizes walks one MEMO through blocks with fewer,
// then more, tables and columns than the chunks it holds were cut for: every
// run must get whole, private arrays whatever the previous tenants left.
func TestArenaResetAcrossBlockSizes(t *testing.T) {
	m := New(0)
	for i, dims := range [][2]int{{6, 8}, {3, 3}, {6, 8}, {4, 5}, {7, 12}, {2, 2}, {6, 70}, {7, 12}} {
		blk := arenaBlock(t, dims[0], dims[1])
		fillAll(m, blk)
		checkEquivs(t, m, blk, fmt.Sprintf("run %d (%d tables × %d columns)", i, dims[0], dims[1]))
	}
}

// TestPooledMemosDoNotAliasArenas cycles MEMOs through a shared pool from
// several goroutines, each filling and then re-checking its equivalences; a
// chunk reachable from two live MEMOs would trip the race detector and the
// comparison.
func TestPooledMemosDoNotAliasArenas(t *testing.T) {
	blocks := []*query.Block{arenaBlock(t, 4, 5), arenaBlock(t, 5, 9), arenaBlock(t, 6, 6)}
	pool := sync.Pool{New: func() any { return New(0) }}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for round := 0; round < 20; round++ {
				m := pool.Get().(*Memo)
				blk := blocks[rng.Intn(len(blocks))]
				fillAll(m, blk)
				for _, e := range m.Entries() {
					want := blk.EquivWithin(e.Tables)
					for c := query.ColID(0); int(c) < len(blk.Columns); c++ {
						if e.Equiv.Rep(c) != want.Rep(c) {
							t.Errorf("goroutine %d: entry %v column %d: rep %d, fresh %d (aliased arena?)",
								id, e.Tables, c, e.Equiv.Rep(c), want.Rep(c))
							return
						}
					}
				}
				pool.Put(m)
			}
		}(g)
	}
	wg.Wait()
}
