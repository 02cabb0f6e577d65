package query

import "cote/internal/bitset"

// Equiv captures the column equivalence classes induced by the equality join
// predicates applied within one table set. The paper notes that joins change
// property equivalence (an order on R.a and one on S.a become equivalent
// once R.a = S.a is applied), so equivalence must be recomputed per
// enumerated table set; Equiv is the per-set answer.
type Equiv struct {
	// rep maps every column to its class representative: the union-find
	// forest after flattening, so lookups are single reads and read-only —
	// one Equiv is shared by all workers of the parallel DP round.
	rep []int32
}

// EquivWithin returns the equivalence classes induced by equality join
// predicates whose both sides lie inside s. The Block must be finalized.
func (b *Block) EquivWithin(s bitset.Set) *Equiv {
	uf := newUnionFind(len(b.Columns))
	for i := range b.JoinPreds {
		p := &b.JoinPreds[i]
		if p.Op != Eq {
			continue
		}
		t := b.predTabs[i]
		if s.Contains(t[0]) && s.Contains(t[1]) {
			uf.union(int(p.Left), int(p.Right))
		}
	}
	uf.flatten()
	return &Equiv{rep: uf.parent}
}

// Same reports whether columns a and b are in the same equivalence class.
func (e *Equiv) Same(a, b ColID) bool {
	return e.rep[a] == e.rep[b]
}

// Rep returns the canonical representative of a's class. Representatives
// are stable for a given Equiv and suitable as map keys.
func (e *Equiv) Rep(a ColID) ColID {
	return ColID(e.rep[a])
}
