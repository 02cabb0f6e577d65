// Package memo implements the MEMO structure of the dynamic-programming
// optimizer (the terminology follows Volcano, as the paper does): one entry
// per enumerated table set, holding the non-pruned plans for the real
// optimization path and the interesting-property value lists for the
// estimator's plan-estimate mode.
//
// Logical properties — cardinality, the column equivalence classes induced
// by applied predicates, outer-eligibility — are cached per entry and
// computed once, which is both how DB2 behaves and what the paper's
// implementation experience (item 5) requires so that the join enumerator
// makes the same decisions in both modes.
package memo

import (
	"fmt"
	"math/bits"
	"sort"
	"unsafe"

	"cote/internal/bitset"
	"cote/internal/props"
	"cote/internal/query"
)

// Per-structure footprints: a MEMO's durable bytes are its counts times
// these. Struct sizes plus a small constant index overhead (index slot,
// size-class slot) instead of allocator-reported bytes keep the measured
// durable high-water mark deterministic across pool states and repeated
// runs — the property core.EstimateMemory and its calibration depend on.
const (
	// entryIndexBytes approximates an entry's share of the index
	// bookkeeping: its open-addressed key+pointer slot (amortized over the
	// table's load factor) and its size-class slot.
	entryIndexBytes = 40
	// EntryFootprint is the bytes of one MEMO entry.
	EntryFootprint = int64(unsafe.Sizeof(Entry{})) + entryIndexBytes
	// PlanFootprint is the bytes of one retained plan: the node itself
	// plus its pointer slot in the entry's plan list.
	PlanFootprint = int64(unsafe.Sizeof(Plan{})) + 8
	// PropertyValueBytes is the paper's ~4 bytes per interesting-property
	// value (Section 3.4), also used by PropertyListBytes.
	PropertyValueBytes = 4
)

// Operator identifies the physical operator at the root of a plan.
type Operator int

// Physical operators of the reproduced executor.
const (
	OpTableScan Operator = iota
	OpIndexScan
	OpSort
	OpRepartition
	OpNLJN
	OpMGJN
	OpHSJN
	OpGroupBy
)

// String names the operator.
func (o Operator) String() string {
	switch o {
	case OpTableScan:
		return "TBSCAN"
	case OpIndexScan:
		return "IXSCAN"
	case OpSort:
		return "SORT"
	case OpRepartition:
		return "REPART"
	case OpNLJN:
		return "NLJN"
	case OpMGJN:
		return "MGJN"
	case OpHSJN:
		return "HSJN"
	case OpGroupBy:
		return "GRPBY"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// JoinMethod maps a join operator to its props method, or -1 for non-joins.
func (o Operator) JoinMethod() props.JoinMethod {
	switch o {
	case OpNLJN:
		return props.NLJN
	case OpMGJN:
		return props.MGJN
	case OpHSJN:
		return props.HSJN
	}
	return props.JoinMethod(-1)
}

// Plan is one physical plan alternative. Plans form trees; the MEMO only
// retains the non-pruned roots per entry, and children are plans of smaller
// entries (or enforcers over them).
type Plan struct {
	Op          Operator
	Left, Right *Plan
	Tables      bitset.Set
	// Order and Part are the physical properties the plan delivers. Empty
	// values are the don't-care property.
	Order props.Order
	Part  props.Partition
	Cost  float64
	Card  float64
	// OrderKnownRetired marks a plan whose order has retired but which the
	// shared-nothing optimizer conservatively kept because its partition is
	// still interesting — the compound-property behaviour that makes the
	// paper's separate-list estimate a slight underestimate.
	OrderKnownRetired bool
	// Pipelined marks a plan that can deliver its first rows without full
	// materialization (no SORT below, no hash-join build on the path of the
	// first row). It participates in pruning only when the MEMO's
	// PipelineMatters flag is set (FETCH FIRST queries).
	Pipelined bool
	// DeferredExp is the set of tables whose expensive predicates this plan
	// has deferred past its joins (Table 1 of the paper: "any subset of the
	// expensive predicates" is interesting; this optimizer defers per table,
	// all or nothing). Deferred predicates are applied by the finishing
	// step. Plans with different deferral sets are incomparable.
	DeferredExp bitset.Set
}

// String renders the plan tree on one line, as the optimize response's plan
// field and diagnostics show it: a leaf is its operator and table set, any
// other node its operator and its children in parentheses.
func (p *Plan) String() string {
	var buf [256]byte
	return string(p.AppendString(buf[:0]))
}

// AppendString appends String's rendering of the plan tree to dst.
func (p *Plan) AppendString(dst []byte) []byte {
	if p == nil {
		return append(dst, "<nil>"...)
	}
	dst = append(dst, p.Op.String()...)
	if p.Left == nil && p.Right == nil {
		return p.Tables.AppendString(dst)
	}
	dst = p.Left.AppendString(append(dst, '('))
	if p.Right != nil {
		dst = p.Right.AppendString(append(dst, ','))
	}
	return append(dst, ')')
}

// Entry is one MEMO entry: the planning state for one table set.
type Entry struct {
	Tables bitset.Set
	// Card is the cached output cardinality (a logical property).
	Card float64
	// Equiv caches the equivalence classes induced by predicates applied
	// within Tables, by value: its representative array is carved from the
	// MEMO's arena (Memo.InitBase, Memo.InitJoin), so it costs the entry no
	// allocation.
	Equiv query.Equiv
	// Neighbors caches the join-graph neighborhood of Tables — the union of
	// the adjacency sets of its members, minus Tables itself. The enumerator
	// fills it at entry creation (composing it from the joined parts in O(1)
	// for composite entries) and tests a partner L for a connecting predicate
	// with one Neighbors.Overlaps(L.Tables).
	Neighbors bitset.Set
	// Plans are the non-pruned plans (real optimization mode). The list is a
	// window of the MEMO's plan arena (Memo.InsertPlan); append to it only
	// through InsertPlan.
	Plans []*Plan
	// Orders and Parts are the interesting-property value lists
	// (plan-estimate mode, and seeds for enforcer generation in real mode).
	Orders props.OrderList
	Parts  props.PartitionList
	// OuterEligible records whether plans of this entry may serve as the
	// outer of a join; the enumerator marks it from outer-join and
	// correlation constraints.
	OuterEligible bool
	// PropsPropagated supports the paper's first-join-only simplification
	// (DB2 experience item 4): properties are propagated into an entry only
	// by the first join producing it.
	PropsPropagated bool
	// slot is the entry's position in the MEMO's slab, which also locates
	// its predicate sides (Memo.Sides). It sits in what was tail padding:
	// the entry stays 128 bytes, so EntryFootprint, and with it every durable
	// peak, holds.
	slot int32
}

// fibMul is the 64-bit Fibonacci hashing multiplier (2^64/phi). Table sets
// are dense small integers whose low bits carry most of the information;
// multiplying and keeping the top bits spreads them uniformly over any
// power-of-two table.
const fibMul = 0x9E3779B97F4A7C15

// slabBlock is the number of entries per slab chunk. Chunks never move once
// allocated, so entry pointers stay stable while the slab grows.
const slabBlock = 128

// repChunkEntries is the number of entries whose representative arrays one
// arena chunk holds. Chunks are sized from the block (entries × columns),
// never from a byte constant: a MEMO keeps every chunk it ever cut across
// Reset, and one whose compile is never released is garbage with it, so a
// chunk larger than a small query's whole MEMO is waste either way.
const repChunkEntries = 8

// idxSlot is one slot of the open-addressed index: the table set and the
// entry it maps to. A nil entry marks the slot empty (the zero key is a
// valid set, so the pointer is the occupancy marker).
type idxSlot struct {
	key bitset.Set
	e   *Entry
}

// Memo is the table of entries for one query block.
//
// The index is an open-addressed, linear-probed table keyed directly on the
// uint64 table set, and entries live in a chunked slab: compared to the
// map[bitset.Set]*Entry it replaced, a lookup is one multiply and a short
// contiguous probe with no hash-function call, entries of one run are
// cache-contiguous, and the GC sees a handful of chunk slices instead of a
// bucket graph. Both the estimate and optimize hot paths hit this index once
// per enumerated pair.
type Memo struct {
	table []idxSlot // power-of-two open-addressed index; e==nil means empty
	shift uint      // 64 - log2(len(table)): Fibonacci hash keeps the top bits
	count int       // live entries in table
	// blocks is the entry slab. Reset cleans used entries in place (keeping
	// their Orders/Parts capacities) instead of freeing them, so pooled reuse
	// allocates nothing in steady state.
	blocks [][]Entry
	nused  int
	// reps is the arena entries' representative arrays (Entry.Equiv) are
	// carved from, cols the one stored properties keep their columns in
	// (AddOrder and KeepCols: the estimator's property lists, and the orders
	// and partitions of the real optimizer's plans, which live in this MEMO
	// too). Reset rewinds both and keeps the chunks, so a pooled MEMO
	// allocates nothing per entry or stored property in steady state. Only
	// the goroutine running the enumeration carves: no lock.
	reps bump[int32]
	cols bump[query.ColID]
	// sides holds the entries' predicate sides, one chunk per slab block:
	// the entry in slab slot i keeps its sideWords word pairs at
	// sides[i/slabBlock][(i%slabBlock)*sideWords:]. A chunk is cut for its
	// slab block's entries when the first of them takes sides, and cut anew
	// then if a block with more predicate words outgrew it. Reset keeps the
	// chunks.
	sides     [][][2]uint64
	sideWords int
	// plans is the arena entries' plan lists live in: InsertPlan moves a
	// full list into a window twice its size (planWindow at first) and
	// abandons the old one in place. Reset clears the chunks, so a pooled
	// MEMO pins no plan tree, and rewinds.
	plans bump[*Plan]
	// nodes is the arena the plans themselves are carved from (NewPlan).
	// Reset rewinds it without clearing — the plans left in it point into
	// this MEMO's own arenas, or at a base table's partition columns — and
	// the next block overwrites them, so a plan is valid exactly as long as
	// its MEMO's block.
	nodes  bump[Plan]
	bySize [][]*Entry
	// sorted caches the Entries() snapshot; GetOrCreate invalidates it, so
	// hot consumers (plan counting, serialization, diagnostics) sort once
	// after enumeration instead of once per call.
	sorted []*Entry
	nplans int
	// nprops and nchunks are the interesting-property values the MEMO was
	// given (AddProperties) and the node chunks it entered (NewPlan); with
	// count and nplans they are its bytes. durablePeak and peak are the
	// block's high-water marks of DurableBytes and Bytes.
	nprops, nchunks   int
	durablePeak, peak int64
	// PipelineMatters makes pipelineability a pruning-relevant property:
	// a non-pipelined plan can no longer dominate a pipelined one. Set by
	// the optimizer for FETCH FIRST queries.
	PipelineMatters bool
	// ExpMatters makes expensive-predicate deferral pruning-relevant: plans
	// are comparable only with equal deferral sets. Set when the query has
	// expensive predicates.
	ExpMatters bool
}

// New creates an empty MEMO for a block of n tables.
func New(n int) *Memo {
	m := &Memo{bySize: make([][]*Entry, n+1)}
	m.sizeIndex(n)
	return m
}

// sizeIndex replaces the index with an empty one of the size a block of n
// tables starts from.
func (m *Memo) sizeIndex(n int) {
	size := 16
	for size < 4*(n+1) {
		size *= 2
	}
	m.table = make([]idxSlot, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// find probes for s and returns its entry, or nil together with the slot
// index where an insert would place it.
func (m *Memo) find(s bitset.Set) (*Entry, int) {
	mask := len(m.table) - 1
	i := int((uint64(s) * fibMul) >> m.shift)
	for m.table[i].e != nil {
		if m.table[i].key == s {
			return m.table[i].e, i
		}
		i = (i + 1) & mask
	}
	return nil, i
}

// grow doubles the index and rehashes every live slot. Entries themselves
// never move — only their index slots do.
func (m *Memo) grow() {
	old := m.table
	m.table = make([]idxSlot, 2*len(old))
	m.shift--
	mask := len(m.table) - 1
	for _, sl := range old {
		if sl.e == nil {
			continue
		}
		i := int((uint64(sl.key) * fibMul) >> m.shift)
		for m.table[i].e != nil {
			i = (i + 1) & mask
		}
		m.table[i] = sl
	}
}

// alloc hands out the next slab entry, growing the slab by one chunk when
// exhausted. Entries past a Reset were cleaned in place, so the returned
// entry is always zero-valued apart from its retained slice capacities.
func (m *Memo) alloc() *Entry {
	b := m.nused / slabBlock
	if b == len(m.blocks) {
		m.blocks = append(m.blocks, make([]Entry, slabBlock))
	}
	e := &m.blocks[b][m.nused%slabBlock]
	e.slot = int32(m.nused)
	m.nused++
	return e
}

// bump is a chunked bump allocator. Chunks never move or shrink; rewinding
// the cursor (cur, off = 0, 0) forgets everything carved and keeps them.
type bump[T any] struct {
	chunks   [][]T
	cur, off int
}

// take carves n elements, starting a chunk of max(n, chunk) of them when the
// current one is full and stepping over kept chunks too short for n. The
// content is stale: the caller overwrites it all.
func (a *bump[T]) take(n, chunk int) []T {
	for {
		if a.cur == len(a.chunks) {
			a.chunks = append(a.chunks, make([]T, max(n, chunk)))
		}
		if c := a.chunks[a.cur]; a.off+n <= len(c) {
			a.off += n
			return c[a.off-n : a.off : a.off]
		}
		a.cur, a.off = a.cur+1, 0
	}
}

// Sides returns e's predicate sides as InitBase or InitJoin cached them:
// the block's join predicates by which of their columns lie in e.Tables.
// The words are read-only and valid until Reset.
func (m *Memo) Sides(e *Entry) query.Sides {
	s, w := uint(e.slot), uint(m.sideWords)
	i := s % slabBlock * w
	return m.sides[s/slabBlock][i : i+w : i+w]
}

// newSides returns the storage of e's predicate sides for a block of words
// predicate words. Its content is stale: the caller overwrites it all.
func (m *Memo) newSides(e *Entry, words int) query.Sides {
	m.sideWords = words
	b := int(e.slot) / slabBlock
	for len(m.sides) <= b {
		m.sides = append(m.sides, nil)
	}
	if len(m.sides[b]) < slabBlock*words {
		m.sides[b] = make([][2]uint64, slabBlock*words)
	}
	return m.Sides(e)
}

// InitBase caches what base entry e inherits from the block: its predicate
// sides, which are its table's incidence, and the equivalence classes they
// induce.
func (m *Memo) InitBase(e *Entry, blk *query.Block) {
	sides := m.newSides(e, blk.PredWords())
	copy(sides, blk.TableSides(e.Tables.Min()))
	m.initEquiv(e, blk, sides)
}

// InitJoin caches the same for e, the union of entries S and L, composing
// its sides from theirs — sides(S ∪ L) = sides(S) | sides(L), exact because
// both unfold to the OR over the union's tables — so no entry creation
// walks the tables of its set.
func (m *Memo) InitJoin(e, S, L *Entry, blk *query.Block) {
	sides := m.newSides(e, blk.PredWords())
	ss, ls := m.Sides(S), m.Sides(L)
	for w := range sides {
		sides[w] = [2]uint64{ss[w][0] | ls[w][0], ss[w][1] | ls[w][1]}
	}
	m.initEquiv(e, blk, sides)
}

// initEquiv builds e's equivalence classes from its sides into arena
// storage, cut in chunks of repChunkEntries arrays of the block's length.
func (m *Memo) initEquiv(e *Entry, blk *query.Block, sides query.Sides) {
	n := len(blk.Columns)
	e.Equiv = blk.EquivFromSides(sides, m.reps.take(n, repChunkEntries*n))
}

// colChunk is the element count of one column-arena chunk: a few hundred
// stored property values of the one to three columns they typically have.
const colChunk = 512

// KeepCols copies a column sequence into the column arena.
func (m *Memo) KeepCols(cols []query.ColID) []query.ColID {
	return append(m.cols.take(len(cols), colChunk)[:0], cols...)
}

// AddOrder inserts o into e's interesting-order list unless an equivalent
// order is present. The stored order gets columns of its own, so o may be a
// scratch value — a window on a join-column buffer, a base-order list about
// to be overwritten. An order already stored in another entry of this MEMO
// needs no copy: e.Orders.Add it directly.
func (m *Memo) AddOrder(e *Entry, o props.Order) {
	if e.Orders.Add(o, &e.Equiv) {
		kept := e.Orders.Orders()
		kept[len(kept)-1].Cols = m.KeepCols(o.Cols)
	}
}

// Plan-arena sizes: the first window of an entry's plan list and the
// pointer count of one arena chunk — most entries keep a handful of plans;
// a chunk is 2 KiB of pointers — and the plans of one node chunk: a handful
// of pages, large enough to amortize the allocator, small enough not to
// overshoot tiny queries badly.
const (
	planWindow = 4
	planChunk  = 256
	nodeChunk  = 256
)

// NodeChunkBytes is the scratch bytes of every node chunk a block enters.
const NodeChunkBytes = nodeChunk * int64(unsafe.Sizeof(Plan{}))

// NewPlan carves a plan from the MEMO's node arena. Its content is stale —
// a plan an earlier block left in a kept chunk — so the caller assigns the
// whole Plan. The real optimizer creates one Plan per generated alternative,
// the dominant allocation of a compile; batching them into chunks kept
// across Reset leaves a pooled MEMO allocating none. Entering a chunk
// counts its capacity, a kept chunk like a new one, so the scratch peak is
// a function of the block and never of what the MEMO served before.
func (m *Memo) NewPlan() *Plan {
	p := &m.nodes.take(1, nodeChunk)[0]
	if m.nodes.off == 1 {
		m.nchunks++
		m.raise()
	}
	return p
}

// cleanEntry returns a used slab entry to the zero state while keeping the
// capacities of its Orders/Parts backing arrays (zeroed first, so the pooled
// slab pins no column slices from the finished run). Its plan list is a
// plan-arena window, which Reset clears and rewinds, so it is dropped.
func cleanEntry(e *Entry) {
	e.Orders.Clear()
	e.Parts.Clear()
	*e = Entry{Orders: e.Orders, Parts: e.Parts}
}

// DurableBytes is the MEMO's logical content: its entries, retained plans
// and interesting-property values at their fixed footprints.
func (m *Memo) DurableBytes() int64 {
	return int64(m.count)*EntryFootprint + int64(m.nplans)*PlanFootprint + int64(m.nprops)*PropertyValueBytes
}

// Bytes is DurableBytes plus the node chunks the block entered, the scratch
// a MEMO holds.
func (m *Memo) Bytes() int64 { return m.DurableBytes() + int64(m.nchunks)*NodeChunkBytes }

// Peaks returns the block's high-water marks of DurableBytes and Bytes.
func (m *Memo) Peaks() (durable, total int64) { return m.durablePeak, m.peak }

// raise lifts the peaks to the current bytes; every count that grows calls
// it.
func (m *Memo) raise() {
	d := m.DurableBytes()
	m.durablePeak = max(m.durablePeak, d)
	m.peak = max(m.peak, d+int64(m.nchunks)*NodeChunkBytes)
}

// AddProperties records n interesting-property values entering the MEMO,
// Section 3.4's ~4 bytes per value. The estimator calls it once per block,
// after its counter grew the entries' order and partition lists.
func (m *Memo) AddProperties(n int) {
	m.nprops += n
	m.raise()
}

// GetOrCreate returns the entry for s, creating it if needed; created
// reports whether this call created it.
func (m *Memo) GetOrCreate(s bitset.Set) (e *Entry, created bool) {
	e, i := m.find(s)
	if e != nil {
		return e, false
	}
	if 4*(m.count+1) > 3*len(m.table) { // grow at 3/4 load
		m.grow()
		_, i = m.find(s)
	}
	k := s.Len()
	e = m.alloc()
	e.Tables = s
	e.OuterEligible = true
	m.table[i] = idxSlot{key: s, e: e}
	m.count++
	m.bySize[k] = append(m.bySize[k], e)
	m.raise()
	m.sorted = nil // invalidate the Entries() snapshot
	return e, true
}

// Reset returns the MEMO to the empty state for a block of n tables,
// keeping the entry map and size buckets so pooled reuse (the estimate and
// compile workspaces) allocates nothing in steady state. Entry and plan-list
// pointers obtained before the Reset must not be used afterwards.
func (m *Memo) Reset(n int) {
	if 4*(n+1) > len(m.table) {
		m.sizeIndex(n) // what New(n) starts from, so a block never regrows it
	} else {
		clear(m.table) // keep the index capacity; e==nil marks every slot empty
	}
	m.count = 0
	// Clean used slab entries in place: zero their property storage up to
	// capacity (so the pool pins nothing from the finished run) but keep the
	// backing arrays for the next run.
	for i := 0; i < m.nused; i++ {
		cleanEntry(&m.blocks[i/slabBlock][i%slabBlock])
	}
	m.nused = 0
	m.reps.cur, m.reps.off = 0, 0
	m.cols.cur, m.cols.off = 0, 0
	for _, c := range m.plans.chunks {
		clear(c)
	}
	m.plans.cur, m.plans.off = 0, 0
	m.nodes.cur, m.nodes.off = 0, 0
	if n+1 > cap(m.bySize) {
		m.bySize = make([][]*Entry, n+1)
	} else {
		m.bySize = m.bySize[:n+1]
		for i, g := range m.bySize {
			clear(g) // drop stale entry pointers so the pool pins nothing
			m.bySize[i] = g[:0]
		}
	}
	m.sorted = nil
	m.nplans, m.nprops, m.nchunks = 0, 0, 0
	m.durablePeak, m.peak = 0, 0
	m.PipelineMatters = false
	m.ExpMatters = false
}

// Entry returns the entry for s, or nil.
func (m *Memo) Entry(s bitset.Set) *Entry {
	e, _ := m.find(s)
	return e
}

// OfSize returns all entries whose table set has k elements, in creation
// order (deterministic given a deterministic enumerator).
func (m *Memo) OfSize(k int) []*Entry {
	if k < 0 || k >= len(m.bySize) {
		return nil
	}
	return m.bySize[k]
}

// NumEntries returns the number of entries.
func (m *Memo) NumEntries() int { return m.count }

// NumPlans returns the number of plans currently stored (post-pruning).
func (m *Memo) NumPlans() int { return m.nplans }

// Entries returns all entries ordered by set size then set value
// (deterministic). The returned slice is a cached snapshot, rebuilt only
// after a GetOrCreate invalidated it; callers must not mutate it.
func (m *Memo) Entries() []*Entry {
	if m.sorted == nil {
		m.sorted = m.sortEntries()
	}
	return m.sorted
}

// sortEntries builds the size-then-set-value ordering from scratch — the
// work Entries once redid on every call.
func (m *Memo) sortEntries() []*Entry {
	out := make([]*Entry, 0, m.count)
	for _, group := range m.bySize {
		g := append([]*Entry(nil), group...)
		sort.Slice(g, func(i, j int) bool { return g[i].Tables < g[j].Tables })
		out = append(out, g...)
	}
	return out
}

// dominates reports whether plan a makes plan b redundant: a costs no more,
// delivers the same partition, and delivers an order at least as general
// (b's order is a prefix of a's). This is the pruning rule of Section 2.1:
// "prunes a higher cost plan if there is a cheaper plan with the same or
// more general properties".
func dominates(a, b *Plan, eq *query.Equiv, m *Memo) bool {
	if a.Cost > b.Cost {
		return false
	}
	if !a.Part.EqualUnder(b.Part, eq) {
		return false
	}
	if m.PipelineMatters && b.Pipelined && !a.Pipelined {
		return false
	}
	if m.ExpMatters && a.DeferredExp != b.DeferredExp {
		return false
	}
	return b.Order.PrefixOfUnder(a.Order, eq)
}

// Dominated reports whether some existing plan of the entry makes p
// redundant — the check InsertPlan applies, exposed so callers (the
// pilot-pass accounting) can distinguish plans the cost bound removed from
// plans ordinary pruning would have removed anyway.
func (m *Memo) Dominated(e *Entry, p *Plan) bool {
	for _, have := range e.Plans {
		if dominates(have, p, &e.Equiv, m) {
			return true
		}
	}
	return false
}

// InsertPlan adds p to entry e, applying property-aware pruning in both
// directions. It reports whether the plan survived. The caller counts
// generated plans before calling (pruned plans were still generated — the
// estimator's target quantity is plans generated, not plans kept).
func (m *Memo) InsertPlan(e *Entry, p *Plan) bool {
	for _, have := range e.Plans {
		if dominates(have, p, &e.Equiv, m) {
			return false
		}
	}
	kept := e.Plans[:0]
	for _, have := range e.Plans {
		if dominates(p, have, &e.Equiv, m) {
			m.nplans--
			continue
		}
		kept = append(kept, have)
	}
	if len(kept) == cap(kept) {
		// Move into a window twice the size; the outgrown one stays in the
		// arena until Reset.
		w := m.plans.take(max(2*cap(kept), planWindow), planChunk)
		kept = w[:copy(w, kept)]
	}
	e.Plans = append(kept, p)
	m.nplans++
	m.raise()
	return true
}

// Best returns the cheapest plan of the entry, or nil if it has none.
func (e *Entry) Best() *Plan {
	var best *Plan
	for _, p := range e.Plans {
		if best == nil || p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// BestWithOrder returns the cheapest plan delivering an order that subsumes
// o (o is a prefix of the plan's order), or nil. The subsumption lookup is
// what creates the paper's coverage effect: a request for a join-column
// order can be answered by a more general ORDER BY order, producing an
// extra merge-join plan.
func (e *Entry) BestWithOrder(o props.Order, eq *query.Equiv) *Plan {
	var best *Plan
	for _, p := range e.Plans {
		if !o.PrefixOfUnder(p.Order, eq) {
			continue
		}
		if best == nil || p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// BestWithPartition returns the cheapest plan delivering exactly the given
// partition (modulo equivalence), or nil.
func (e *Entry) BestWithPartition(part props.Partition, eq *query.Equiv) *Plan {
	var best *Plan
	for _, p := range e.Plans {
		if !p.Part.EqualUnder(part, eq) {
			continue
		}
		if best == nil || p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// PropertyListBytes returns the memory the interesting-property lists of
// all entries occupy, assuming the paper's ~4 bytes per property value. The
// estimator's memory-consumption extension (Section 6.2) builds on this.
func (m *Memo) PropertyListBytes() int {
	total := 0
	for i := 0; i < m.nused; i++ {
		e := &m.blocks[i/slabBlock][i%slabBlock]
		total += (e.Orders.Len() + e.Parts.Len()) * PropertyValueBytes
	}
	return total
}
