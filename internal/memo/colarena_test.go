package memo

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"cote/internal/bitset"
	"cote/internal/props"
	"cote/internal/query"
)

// The column arena's tests, in the manner of arena_test.go: properties reach
// AddOrder and KeepCols as windows on one scratch buffer that is
// overwritten straight after, as the counter's join-column buffers are, and
// what the entries keep is compared with lists built from private copies.

// propFill creates every entry of blk in m and stores, per entry, a few
// orders and a partition whose columns are a function of the table set
// alone. When want is non-nil it receives, per entry in creation order, the
// same properties deduplicated into lists that own their columns. long adds
// one order of that many columns to the first entry — more than a chunk
// holds when it exceeds colChunk.
func propFill(m *Memo, blk *query.Block, scratch []query.ColID, long int, want *[]props.OrderList) {
	fillAll(m, blk)
	ncols := len(blk.Columns)
	for s := bitset.Set(1); s <= blk.AllTables(); s++ {
		e := m.Entry(s)
		var w props.OrderList
		for k := 0; k < 2+int(s)%3; k++ {
			n := 1 + (int(s)+k)%3
			if long > 0 && s == 1 && k == 0 {
				n = long
			}
			o := props.Order{Cols: scratch[:n]}
			for i := range o.Cols {
				o.Cols[i] = query.ColID((int(s)*7 + k*13 + i*5) % ncols)
			}
			m.AddOrder(e, o)
			if want != nil {
				w.Add(props.Order{Cols: slices.Clone(o.Cols)}, &e.Equiv)
			}
			p := props.Partition{Cols: scratch[:1+k%2], Nodes: 4}
			for i := range p.Cols {
				p.Cols[i] = query.ColID((int(s)*3 + k + i) % ncols)
			}
			if !e.Parts.Contains(p, &e.Equiv) {
				p.Cols = m.KeepCols(p.Cols)
				e.Parts.Add(p, &e.Equiv)
			}
			clear(scratch[:n]) // the scratch moves on
		}
		if want != nil {
			*want = append(*want, w)
		}
	}
}

// checkProps compares every entry's stored orders with the private-copy
// lists and requires that no two stored property values — orders and
// partitions of all entries together — overlap in memory, nor touch the
// scratch they were added from.
func checkProps(t *testing.T, m *Memo, blk *query.Block, scratch []query.ColID, want []props.OrderList, when string) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	spanOf := func(cols []query.ColID) span {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(cols)))
		return span{lo, lo + uintptr(len(cols))*unsafe.Sizeof(cols[0])}
	}
	spans := []span{spanOf(scratch)}
	stored := 0
	for s := bitset.Set(1); s <= blk.AllTables(); s++ {
		e := m.Entry(s)
		got, w := e.Orders.Orders(), want[s-1].Orders()
		if !slices.EqualFunc(got, w, func(a, b props.Order) bool { return slices.Equal(a.Cols, b.Cols) }) {
			t.Fatalf("%s: entry %v keeps orders %v, private copies say %v", when, s, got, w)
		}
		for _, o := range got {
			spans = append(spans, spanOf(o.Cols))
		}
		for _, p := range e.Parts.Partitions() {
			spans = append(spans, spanOf(p.Cols))
		}
		stored += len(got)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("%s: two live property values (or one and the scratch) share storage: [%x,%x) and [%x,%x)",
				when, spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	if stored < int(blk.AllTables()) {
		t.Fatalf("%s: only %d orders stored over %d entries", when, stored, blk.AllTables())
	}
}

func TestColArenaValuesOwnTheirStorage(t *testing.T) {
	blk := arenaBlock(t, 7, 9)
	scratch := make([]query.ColID, 8)
	m := New(0)
	var want []props.OrderList
	propFill(m, blk, scratch, 0, &want)
	checkProps(t, m, blk, scratch, want, "first run")
	if len(m.cols.chunks) < 2 {
		t.Fatalf("%d column chunks: the corpus does not cross a chunk boundary", len(m.cols.chunks))
	}
}

// TestColArenaSteadyStateAllocatesNothing: a MEMO that has served a block
// stores the properties of that block, or of a smaller one, again without
// allocating — no chunk, no list growth.
func TestColArenaSteadyStateAllocatesNothing(t *testing.T) {
	big, small := arenaBlock(t, 7, 9), arenaBlock(t, 5, 6)
	scratch := make([]query.ColID, 8)
	m := New(0)
	propFill(m, big, scratch, 0, nil)
	if avg := testing.AllocsPerRun(10, func() { propFill(m, big, scratch, 0, nil) }); avg != 0 {
		t.Fatalf("refilling a warm MEMO's property lists = %.0f allocs, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { propFill(m, small, scratch, 0, nil) }); avg != 0 {
		t.Fatalf("filling a warm MEMO with a smaller block's properties = %.0f allocs, want 0", avg)
	}
	var want []props.OrderList
	propFill(m, small, scratch, 0, &want)
	checkProps(t, m, small, scratch, want, "smaller block on warm arena")
}

// TestColArenaResetAcrossBlockSizes walks one MEMO through blocks of
// different sizes, two of them with an order longer than a chunk: the
// oversized chunk it gets must serve later runs like any other, and a later
// oversized order must step over chunks too short for it.
func TestColArenaResetAcrossBlockSizes(t *testing.T) {
	m := New(0)
	scratch := make([]query.ColID, 2*colChunk)
	for i, run := range []struct{ n, cols, long int }{
		{6, 8, 0}, {3, 3, 0}, {6, 8, colChunk + 40}, {4, 5, 0}, {7, 12, 0}, {2, 2, 0}, {6, 8, 2 * colChunk}, {7, 12, 0},
	} {
		blk := arenaBlock(t, run.n, run.cols)
		var want []props.OrderList
		propFill(m, blk, scratch, run.long, &want)
		checkProps(t, m, blk, scratch, want, fmt.Sprintf("run %d (%d tables × %d columns, long order %d)", i, run.n, run.cols, run.long))
	}
}

// TestPooledMemosDoNotAliasColArenas cycles MEMOs through a shared pool from
// several goroutines; a column chunk reachable from two live MEMOs would
// trip the race detector and the comparison.
func TestPooledMemosDoNotAliasColArenas(t *testing.T) {
	blocks := []*query.Block{arenaBlock(t, 4, 5), arenaBlock(t, 5, 9), arenaBlock(t, 6, 6)}
	pool := sync.Pool{New: func() any { return New(0) }}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			scratch := make([]query.ColID, 8)
			for round := 0; round < 20; round++ {
				m := pool.Get().(*Memo)
				blk := blocks[rng.Intn(len(blocks))]
				var want []props.OrderList
				propFill(m, blk, scratch, 0, &want)
				for s := bitset.Set(1); s <= blk.AllTables(); s++ {
					got, w := m.Entry(s).Orders.Orders(), want[s-1].Orders()
					if !slices.EqualFunc(got, w, func(a, b props.Order) bool { return slices.Equal(a.Cols, b.Cols) }) {
						t.Errorf("goroutine %d: entry %v keeps orders %v, private copies say %v (aliased arena?)", id, s, got, w)
						return
					}
				}
				pool.Put(m)
			}
		}(g)
	}
	wg.Wait()
}
