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
// representative array of the returned Equiv — how a MEMO gives its entries
// their equivalences without one allocation apiece.
func (b *Block) EquivWithinInto(s bitset.Set, rep []int32) Equiv {
	for i := range rep {
		rep[i] = int32(i)
	}
	uf := unionFind{parent: rep}
	b.forEqWithin(s, func(p *JoinPred) { uf.union(int(p.Left), int(p.Right)) })
	// Flatten. Only the columns of the predicates just applied can have left
	// their singleton class, so only they need pointing at their root.
	b.forEqWithin(s, func(p *JoinPred) {
		rep[p.Left] = int32(uf.find(int(p.Left)))
		rep[p.Right] = int32(uf.find(int(p.Right)))
	})
	// Flag the root of every class holding the inside column of a predicate
	// that crosses the boundary of s, then hand the flag down to the members.
	crossing := false
	for w := 0; w < b.predWords; w++ {
		l, r := b.predSides(s, w)
		for x := (l ^ r) & b.eqMask[w]; x != 0; x &= x - 1 {
			k := bits.TrailingZeros64(x)
			p := &b.JoinPreds[w*64+k]
			in := p.Right
			if l>>k&1 != 0 {
				in = p.Left
			}
			root := rep[in] &^ futureJoinBit
			rep[root] = root | futureJoinBit
			crossing = true
		}
	}
	if crossing {
		b.forEqWithin(s, func(p *JoinPred) {
			rep[p.Left] = rep[rep[p.Left]&^futureJoinBit]
			rep[p.Right] = rep[rep[p.Right]&^futureJoinBit]
		})
	}
	return Equiv{rep: rep}
}

// forEqWithin calls fn for every equality predicate with both sides inside
// s, in JoinPreds order.
func (b *Block) forEqWithin(s bitset.Set, fn func(p *JoinPred)) {
	for w := 0; w < b.predWords; w++ {
		l, r := b.predSides(s, w)
		for x := l & r & b.eqMask[w]; x != 0; x &= x - 1 {
			fn(&b.JoinPreds[w*64+bits.TrailingZeros64(x)])
		}
	}
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
