package query

import (
	"math/bits"

	"cote/internal/bitset"
)

// Equiv captures what the equality join predicates say about the columns at
// one table set: the equivalence classes induced by the predicates applied
// within the set, and which of those classes a predicate crossing the set's
// boundary — a future join — can still exploit. The paper notes that joins
// change property equivalence (an order on R.a and one on S.a become
// equivalent once R.a = S.a is applied), so both must be recomputed per
// enumerated table set; Equiv is the per-set answer, built once per MEMO
// entry and read-only afterwards.
type Equiv struct {
	// rep maps every column to its class representative: the union-find
	// forest after flattening, so lookups are single reads. Every member of
	// a class with a future join carries futureJoinBit on top, which keeps
	// Same a single comparison and makes the interest test a single read.
	rep []int32
}

// futureJoinBit flags, in Equiv.rep, the classes with a column inside the
// set that an equality predicate links to a column outside it.
const futureJoinBit = 1 << 30

// EquivWithin returns the equivalence classes induced by equality join
// predicates whose both sides lie inside s, and the future-join classes of
// s. The Block must be finalized.
func (b *Block) EquivWithin(s bitset.Set) *Equiv {
	eq := b.EquivWithinInto(s, make([]int32, len(b.Columns)))
	return &eq
}

// EquivWithinInto is EquivWithin building the classes in caller-owned
// storage: rep, of length len(b.Columns) and any content, becomes the
// representative array of the returned Equiv. It is for callers that hold
// no MEMO entry: it gathers the sides of s from its tables, then builds as
// EquivFromSides does.
func (b *Block) EquivWithinInto(s bitset.Set, rep []int32) Equiv {
	var buf [4][2]uint64 // 256 predicates' worth, without an allocation
	sides := Sides(buf[:0])
	if b.predWords > len(buf) {
		sides = make(Sides, 0, b.predWords)
	}
	for w := 0; w < b.predWords; w++ {
		l, r := b.predSides(s, w)
		sides = append(sides, [2]uint64{l, r})
	}
	return b.EquivFromSides(sides, rep)
}

// identity is the template every representative array starts from: copying
// it is one memmove where a store per column is not vectorized.
var identity = func() (id [1024]int32) {
	for i := range id {
		id[i] = int32(i)
	}
	return id
}()

// EquivFromSides builds the equivalence classes of the table set whose
// predicate sides are sides into rep, of length len(b.Columns) and any
// content — how a MEMO entry gets its classes from the sides it composed
// from its two inputs, without a walk over its tables or an allocation.
func (b *Block) EquivFromSides(sides Sides, rep []int32) Equiv {
	for i := copy(rep, identity[:]); i < len(rep); i++ {
		rep[i] = int32(i)
	}
	// Union the columns of the predicates within the set. The predicates are
	// walked directly, not through a callback: this runs once per MEMO entry.
	uf := unionFind{parent: rep}
	for w, sw := range sides {
		for x := sw[0] & sw[1] & b.eqMask[w]; x != 0; x &= x - 1 {
			p := &b.JoinPreds[w*64+bits.TrailingZeros64(x)]
			uf.union(int(p.Left), int(p.Right))
		}
	}
	// Flag the root of every class holding the inside column of a predicate
	// that crosses the boundary of the set. find masks the flag, so the
	// forest stays walkable.
	for w, sw := range sides {
		l := sw[0]
		for x := (l ^ sw[1]) & b.eqMask[w]; x != 0; x &= x - 1 {
			k := bits.TrailingZeros64(x)
			p := &b.JoinPreds[w*64+k]
			in := p.Right
			if l>>k&1 != 0 {
				in = p.Left
			}
			rep[uf.find(int(in))] |= futureJoinBit
		}
	}
	// Flatten, handing each member its root's flag. Only the columns of the
	// predicates within the set can have left their singleton class, so only
	// they need pointing at their root.
	for w, sw := range sides {
		for x := sw[0] & sw[1] & b.eqMask[w]; x != 0; x &= x - 1 {
			p := &b.JoinPreds[w*64+bits.TrailingZeros64(x)]
			rep[p.Left] = rep[uf.find(int(p.Left))]
			rep[p.Right] = rep[uf.find(int(p.Right))]
		}
	}
	return Equiv{rep: rep}
}

// Same reports whether columns a and b are in the same equivalence class.
func (e *Equiv) Same(a, b ColID) bool {
	return e.rep[a] == e.rep[b]
}

// Rep returns the canonical representative of a's class. Representatives
// are stable for a given Equiv and suitable as map keys.
func (e *Equiv) Rep(a ColID) ColID {
	return ColID(e.rep[a] &^ futureJoinBit)
}

// FutureJoin reports whether a is equivalent to a column of the set that
// takes part in an equality predicate crossing the set's boundary — whether
// a future merge join or co-located parallel join could exploit an order or
// partition on a.
func (e *Equiv) FutureJoin(a ColID) bool {
	return e.rep[a]&futureJoinBit != 0
}
