package memo

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
)

// arenaBlock builds an n-table clique whose tables have cols columns each,
// the first n of them join columns — the size knobs of the representative
// arena: entries (2^n - 1 when every subset is created) × n*cols columns.
func arenaBlock(t testing.TB, n, cols int) *query.Block {
	return wideArenaBlock(t, n, cols, 1)
}

// wideArenaBlock is arenaBlock with per equality predicates on every edge,
// the knob of the side arena's slot width: n(n-1)/2 × per predicates fill
// that many bits, 64 to a word. cols must be at least n × per.
func wideArenaBlock(t testing.TB, n, cols, per int) *query.Block {
	t.Helper()
	name := fmt.Sprintf("arena%dx%dx%d", n, cols, per)
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
			for j := 0; j < per; j++ {
				qb.Join(qb.ColByTableIndex(a, b*per+j), qb.ColByTableIndex(b, a*per+j), query.Eq)
			}
		}
	}
	blk, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// fillAll resets m for blk and creates the entry of every non-empty table
// set with its sides and equivalence, as an enumeration of a clique does:
// in ascending set order, so both inputs of every composite entry exist.
func fillAll(m *Memo, blk *query.Block) {
	m.Reset(blk.NumTables())
	for s := bitset.Set(1); s <= blk.AllTables(); s++ {
		e, _ := m.GetOrCreate(s)
		initEntry(m, e, blk)
	}
}

// checkSides compares every live entry's predicate sides with the OR of its
// tables' incidence, and fails when two entries' sides share storage.
func checkSides(t *testing.T, m *Memo, blk *query.Block, when string) {
	t.Helper()
	owner := map[*[2]uint64]bitset.Set{}
	for _, e := range m.Entries() {
		got := m.Sides(e)
		if len(got) != blk.PredWords() {
			t.Fatalf("%s: entry %v has %d side words, want %d", when, e.Tables, len(got), blk.PredWords())
		}
		for w := range got {
			var want [2]uint64
			for tb := e.Tables.Next(0); tb >= 0; tb = e.Tables.Next(tb + 1) {
				in := blk.TableSides(tb)[w]
				want[0] |= in[0]
				want[1] |= in[1]
			}
			if got[w] != want {
				t.Fatalf("%s: entry %v side word %d = %x, from its tables %x", when, e.Tables, w, got[w], want)
			}
			if prev, ok := owner[&got[w]]; ok {
				t.Fatalf("%s: entries %v and %v share side word %d", when, prev, e.Tables, w)
			}
			owner[&got[w]] = e.Tables
		}
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
	for _, c := range []struct{ n, cols, per, words int }{{7, 9, 1, 1}, {7, 49, 7, 3}} {
		blk := wideArenaBlock(t, c.n, c.cols, c.per)
		if blk.PredWords() != c.words {
			t.Fatalf("%s: %d predicate words, want %d", blk.Name, blk.PredWords(), c.words)
		}
		m := New(0)
		fillAll(m, blk)
		if m.NumEntries() != 127 {
			t.Fatalf("%d entries, want 127", m.NumEntries())
		}
		checkEquivs(t, m, blk, blk.Name+" first run")
		checkSides(t, m, blk, blk.Name+" first run")
		// 127 entries in chunks of repChunkEntries, none larger than that.
		if want := (127 + repChunkEntries - 1) / repChunkEntries; len(m.reps.chunks) != want {
			t.Fatalf("%d arena chunks, want %d", len(m.reps.chunks), want)
		}
		for i, ch := range m.reps.chunks {
			if len(ch) != repChunkEntries*len(blk.Columns) {
				t.Fatalf("chunk %d holds %d elements, want %d entries × %d columns", i, len(ch), repChunkEntries, len(blk.Columns))
			}
		}
		// 127 entries fill one slab block, so their sides one chunk of a slab
		// block's slots, each the block's predicate words wide.
		if len(m.sides) != 1 || len(m.sides[0]) != slabBlock*c.words {
			t.Fatalf("%d side chunks, the first of %d word pairs; want one of %d", len(m.sides), len(m.sides[0]), slabBlock*c.words)
		}
	}
}

// TestEntryStays128Bytes pins the entry's size. EntryFootprint is
// unsafe.Sizeof(Entry) plus the index share, and it is charged per entry
// into the durable peak of every estimate and compile: a field that grows
// the entry moves every response's peak bytes and, with them, the
// benchmark's response_digest.
func TestEntryStays128Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 128 {
		t.Fatalf("memo.Entry is %d bytes, want 128: EntryFootprint (%d B charged per entry) would move every durable peak and the benchmark's response_digest", got, EntryFootprint)
	}
}

// TestArenaSteadyStateAllocatesNothing is the pooled estimate MEMO's
// contract: once a MEMO has served a block, serving it (or a smaller one)
// again allocates nothing — not for entries, not for their sides or
// equivalences — and neither does a block of fewer predicate words, or a
// return to the wider one.
func TestArenaSteadyStateAllocatesNothing(t *testing.T) {
	big, small, wide := arenaBlock(t, 7, 9), arenaBlock(t, 5, 6), wideArenaBlock(t, 7, 49, 7)
	m := New(0)
	fillAll(m, big)
	if avg := testing.AllocsPerRun(10, func() { fillAll(m, big) }); avg != 0 {
		t.Fatalf("refilling a warm MEMO = %.0f allocs, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { fillAll(m, small) }); avg != 0 {
		t.Fatalf("filling a warm MEMO with a smaller block = %.0f allocs, want 0", avg)
	}
	checkEquivs(t, m, small, "smaller block on warm arena")
	checkSides(t, m, small, "smaller block on warm arena")
	fillAll(m, wide)
	if avg := testing.AllocsPerRun(10, func() { fillAll(m, big); fillAll(m, wide) }); avg != 0 {
		t.Fatalf("alternating 1- and 3-word blocks on a warm MEMO = %.0f allocs, want 0", avg)
	}
	checkEquivs(t, m, wide, "3-word block after a 1-word one")
	checkSides(t, m, wide, "3-word block after a 1-word one")
}

// TestArenaResetAcrossBlockSizes walks one MEMO through blocks with fewer,
// then more, tables, columns and predicate words than the chunks it holds
// were cut for: every run must get whole, private arrays whatever the
// previous tenants left.
func TestArenaResetAcrossBlockSizes(t *testing.T) {
	m := New(0)
	for i, dims := range [][3]int{
		{6, 8, 1}, {3, 3, 1}, {6, 8, 1}, {4, 5, 1}, {7, 12, 1}, {2, 2, 1}, {6, 70, 1}, {7, 12, 1},
		{7, 49, 7}, {7, 9, 1}, {7, 49, 7}, {6, 30, 5}, {3, 3, 1}, {7, 49, 7},
		{8, 9, 1}, {8, 64, 8}, {8, 9, 1}, {7, 49, 7},
	} {
		blk := wideArenaBlock(t, dims[0], dims[1], dims[2])
		fillAll(m, blk)
		when := fmt.Sprintf("run %d (%d tables × %d columns, %d predicate words)", i, dims[0], dims[1], blk.PredWords())
		checkEquivs(t, m, blk, when)
		checkSides(t, m, blk, when)
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
