package bitset

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestOfAndElems(t *testing.T) {
	s := Of(3, 1, 5, 3)
	if got := s.Elems(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Elems = %v, want [1 3 5]", got)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64} {
		s := Full(n)
		want := n
		if n > MaxElems {
			want = MaxElems
		}
		if s.Len() != want {
			t.Errorf("Full(%d).Len = %d, want %d", n, s.Len(), want)
		}
	}
}

func TestAddRemoveContains(t *testing.T) {
	var s Set
	s = s.Add(7)
	if !s.Contains(7) {
		t.Fatal("Contains(7) after Add = false")
	}
	if s.Contains(6) {
		t.Fatal("Contains(6) = true, want false")
	}
	s = s.Remove(7)
	if !s.Empty() {
		t.Fatal("set not empty after Remove")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(0, 1, 2)
	b := Of(2, 3)
	if got := a.Union(b); got != Of(0, 1, 2, 3) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != Of(2) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); got != Of(0, 1) {
		t.Errorf("Diff = %v", got)
	}
	if !a.Overlaps(b) {
		t.Error("Overlaps = false, want true")
	}
	if a.Overlaps(Of(5)) {
		t.Error("Overlaps disjoint = true")
	}
	if !Of(1).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf wrong")
	}
}

func TestMinNext(t *testing.T) {
	s := Of(4, 9)
	if s.Min() != 4 {
		t.Fatalf("Min = %d", s.Min())
	}
	if s.Next(0) != 4 || s.Next(5) != 9 || s.Next(10) != -1 || s.Next(64) != -1 {
		t.Fatal("Next sequence wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Min of empty set did not panic")
		}
	}()
	Set(0).Min()
}

func TestSubsetsProperCount(t *testing.T) {
	s := Of(0, 2, 5, 6)
	n := 0
	seen := map[Set]bool{}
	s.SubsetsProper(func(sub Set) bool {
		if sub.Empty() || sub == s || !sub.SubsetOf(s) {
			t.Fatalf("invalid subset %v of %v", sub, s)
		}
		if seen[sub] {
			t.Fatalf("duplicate subset %v", sub)
		}
		seen[sub] = true
		n++
		return true
	})
	if want := (1 << s.Len()) - 2; n != want {
		t.Fatalf("got %d proper non-empty subsets, want %d", n, want)
	}
}

func TestSubsetsProperEarlyStop(t *testing.T) {
	n := 0
	Of(0, 1, 2, 3).SubsetsProper(func(Set) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop after %d calls, want 3", n)
	}
}

func TestString(t *testing.T) {
	if got := Of(0, 3).String(); got != "{0,3}" {
		t.Fatalf("String = %q", got)
	}
	if got := Set(0).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// Property: Len agrees with popcount, and Elems round-trips through Of.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		s := Set(raw)
		if s.Len() != bits.OnesCount64(raw) {
			return false
		}
		return Of(s.Elems()...) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish identities on a bounded universe.
func TestQuickAlgebraLaws(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := Set(a), Set(b)
		if x.Union(y) != y.Union(x) || x.Intersect(y) != y.Intersect(x) {
			return false
		}
		if x.Diff(y).Overlaps(y) {
			return false
		}
		return x.Diff(y).Union(x.Intersect(y)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every emitted subset is proper and non-empty, and for small sets
// the count is 2^n - 2.
func TestQuickSubsets(t *testing.T) {
	f := func(raw uint16) bool {
		s := Set(raw)
		n := 0
		ok := true
		s.SubsetsProper(func(sub Set) bool {
			if sub.Empty() || sub == s || !sub.SubsetOf(s) {
				ok = false
				return false
			}
			n++
			return true
		})
		if !ok {
			return false
		}
		want := 0
		if s.Len() > 0 {
			want = (1 << s.Len()) - 2
		}
		return n == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubsetsProper(b *testing.B) {
	s := Full(12)
	for i := 0; i < b.N; i++ {
		n := 0
		s.SubsetsProper(func(Set) bool { n++; return true })
	}
}

var benchSink int

// BenchmarkNextSparse walks the sparse sets typical of join-graph adjacency
// (a handful of neighbors out of 64 positions).
func BenchmarkNextSparse(b *testing.B) {
	s := Of(3, 17, 29, 44, 61)
	for i := 0; i < b.N; i++ {
		n := 0
		for e := s.Next(0); e >= 0; e = s.Next(e + 1) {
			n += e
		}
		benchSink = n
	}
}
