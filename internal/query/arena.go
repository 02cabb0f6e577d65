package query

import (
	"unsafe"

	"cote/internal/bitset"
	"cote/internal/catalog"
)

// Arena is the storage a statement's blocks are carved from: the blocks and
// their builders, table and column references with their pointer lists,
// predicate and clause slices, Finalize's indexes and scratch, and the
// block names. A block built through an arena's builder lives exactly as
// long as the arena's current contents: Reset hands all of it out again.
//
// The serving path takes one arena per request from a pool and puts it back
// when the request returns, so a warm statement costs no allocation for its
// blocks; NewBuilder (and the parser and fingerprint entry points that keep
// their heap signatures) use a fresh arena that the GC reclaims with the
// block. An Arena is used by one goroutine at a time; the zero value is
// ready to use.
type Arena struct {
	blocks   slab[Block]
	builders slab[Builder]
	refs     slab[TableRef]
	cols     slab[ColumnRef]
	refPtrs  slab[*TableRef]
	colPtrs  slab[*ColumnRef]
	synth    slab[catalog.Column]
	synPtrs  slab[*catalog.Column]
	joins    slab[JoinPred]
	locals   slab[LocalPred]
	outers   slab[OuterJoin]
	colIDs   slab[ColID]
	int32s   slab[int32]
	sets     slab[bitset.Set]
	incs     slab[[2]uint64]
	words    slab[uint64]
	text     slab[byte]
}

// Reset zeroes everything the arena handed out and makes it available
// again. Zeroing is a correctness condition, not hygiene: Finalize ORs bits
// into the adjacency and incidence arrays it carves, and a builder and a
// block carry their err and finalized flags, so stale storage would be a
// wrong block. Every block, slice and name carved before the call is
// invalid after it.
func (a *Arena) Reset() {
	a.blocks.reset()
	a.builders.reset()
	a.refs.reset()
	a.cols.reset()
	a.refPtrs.reset()
	a.colPtrs.reset()
	a.synth.reset()
	a.synPtrs.reset()
	a.joins.reset()
	a.locals.reset()
	a.outers.reset()
	a.colIDs.reset()
	a.int32s.reset()
	a.sets.reset()
	a.incs.reset()
	a.words.reset()
	a.text.reset()
}

// Name returns the concatenation of parts as a string in arena storage —
// how a block name costs no allocation of its own. Like the blocks it
// names, the string is valid until Reset.
func (a *Arena) Name(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return ""
	}
	buf := a.text.take(n)
	k := 0
	for _, p := range parts {
		k += copy(buf[k:], p)
	}
	return unsafe.String(&buf[0], n)
}

// slab hands out runs of T from one chunk at a time. A run is never moved:
// blocks point into it. An exhausted chunk is given up for a larger one,
// and reset folds the runs handed out from given-up chunks into the size of
// the next chunk, so a slab that served a statement once serves its like
// again from one chunk. The elements past len(chunk) are always zero.
type slab[T any] struct {
	chunk []T // len = elements handed out from the current chunk
	spill int // elements handed out from given-up chunks since the last reset
}

// chunkBytes is about the smallest chunk a slab allocates: many small
// elements to a chunk, but a block or two rather than a dozen.
const chunkBytes = 512

// minRun is the smallest capacity grow gives a slice: a block's lists have a
// handful of elements, and the 1-2-4 steps below it would only copy.
const minRun = 4

// take returns n zeroed elements whose capacity is exactly n, so an append
// past them reallocates rather than overwriting the next run. Zero elements
// are nil, whatever the slab holds, so a block does not depend on which
// arena built it.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.chunk)-len(s.chunk) < n {
		var zero T
		s.spill += len(s.chunk)
		s.chunk = make([]T, 0, max(2*n, 2*cap(s.chunk), chunkBytes/int(unsafe.Sizeof(zero))))
	}
	from := len(s.chunk)
	s.chunk = s.chunk[:from+n]
	return s.chunk[from : from+n : from+n]
}

// grow returns dst with room for n more elements. A full dst doubles: in
// place when it is the chunk's latest run and the chunk has room, by a copy
// into a new run otherwise (the old run is dead storage until reset).
func (s *slab[T]) grow(dst []T, n int) []T {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	want := max(2*cap(dst), len(dst)+n, minRun)
	if end := len(s.chunk); cap(dst) > 0 && end > 0 && &dst[:cap(dst)][cap(dst)-1] == &s.chunk[end-1] &&
		cap(s.chunk)-end >= want-cap(dst) {
		from := end - cap(dst)
		s.chunk = s.chunk[:from+want]
		return s.chunk[from : from+len(dst) : from+want]
	}
	run := s.take(want)
	return run[:copy(run, dst)]
}

// reset zeroes the handed-out elements and readies the slab for reuse.
func (s *slab[T]) reset() {
	clear(s.chunk)
	if s.spill > 0 {
		s.chunk = make([]T, 0, cap(s.chunk)+s.spill)
		s.spill = 0
		return
	}
	s.chunk = s.chunk[:0]
}
