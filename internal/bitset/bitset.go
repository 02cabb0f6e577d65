// Package bitset provides a compact set of table positions used as the key
// of MEMO entries and as the working representation of table sets inside the
// join enumerator.
//
// A query block in this system is limited to 64 base tables (DB2-era
// optimizers impose similar limits per block; larger queries are split into
// blocks), so a Set is a single machine word and all operations are branch
// free. The zero value is the empty set.
package bitset

import (
	"math/bits"
	"strconv"
)

// Set is a set of table positions in the range [0, 64).
type Set uint64

// MaxElems is the largest number of distinct elements a Set can hold.
const MaxElems = 64

// Single returns the set containing only position i.
func Single(i int) Set { return 1 << uint(i) }

// Of builds a set from the given positions.
func Of(elems ...int) Set {
	var s Set
	for _, e := range elems {
		s |= Single(e)
	}
	return s
}

// Full returns the set {0, 1, ..., n-1}.
func Full(n int) Set {
	if n >= MaxElems {
		return ^Set(0)
	}
	return Single(n) - 1
}

// Add returns s with position i added.
func (s Set) Add(i int) Set { return s | Single(i) }

// Remove returns s with position i removed.
func (s Set) Remove(i int) Set { return s &^ Single(i) }

// Contains reports whether position i is in s.
func (s Set) Contains(i int) bool { return s&Single(i) != 0 }

// Union returns the union of s and t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns the intersection of s and t.
func (s Set) Intersect(t Set) Set { return s & t }

// Diff returns the elements of s not in t.
func (s Set) Diff(t Set) Set { return s &^ t }

// Overlaps reports whether s and t share any element.
func (s Set) Overlaps(t Set) bool { return s&t != 0 }

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Empty reports whether s has no elements.
func (s Set) Empty() bool { return s == 0 }

// Len returns the number of elements in s.
func (s Set) Len() int { return bits.OnesCount64(uint64(s)) }

// Min returns the smallest element of s. It panics on the empty set.
func (s Set) Min() int {
	if s == 0 {
		panic("bitset: Min of empty set")
	}
	return bits.TrailingZeros64(uint64(s))
}

// Next returns the smallest element of s that is >= i, or -1 if none exists.
// It allows resumable iteration without allocation:
//
//	for i := s.Next(0); i >= 0; i = s.Next(i + 1) { ... }
func (s Set) Next(i int) int {
	if i >= MaxElems {
		return -1
	}
	rest := uint64(s) >> uint(i) << uint(i)
	if rest == 0 {
		return -1
	}
	return bits.TrailingZeros64(rest)
}

// Elems returns the elements of s in increasing order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Len())
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

// SubsetsProper calls fn for every non-empty proper subset of s. This is the
// standard sub-mask enumeration used by DP join enumerators when splitting a
// table set into (outer, inner) halves. If fn returns false, iteration stops
// early.
func (s Set) SubsetsProper(fn func(sub Set) bool) {
	u := uint64(s)
	for sub := (u - 1) & u; sub > 0; sub = (sub - 1) & u {
		if !fn(Set(sub)) {
			return
		}
	}
}

// String renders the set as "{0,3,5}".
func (s Set) String() string { return string(s.AppendString(nil)) }

// AppendString appends String's rendering of the set to dst.
func (s Set) AppendString(dst []byte) []byte {
	dst = append(dst, '{')
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		if i != s.Min() {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(i), 10)
	}
	return append(dst, '}')
}
