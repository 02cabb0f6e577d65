package props

import (
	"sync"

	"cote/internal/query"
)

// internMaxCols bounds the column count an Interner will canonicalize;
// longer sequences (rare — no workload exceeds 4 ordering columns) fall back
// to a fresh instance, which is merely an allocation, never a correctness
// issue.
const internMaxCols = 6

// internKey is a comparable, allocation-free map key for a column sequence.
type internKey struct {
	n     int32
	nodes int32 // partition node count; 0 for orders
	cols  [internMaxCols]query.ColID
}

func makeInternKey(nodes int, cols []query.ColID) (internKey, bool) {
	if len(cols) > internMaxCols {
		return internKey{}, false
	}
	k := internKey{n: int32(len(cols)), nodes: int32(nodes)}
	copy(k.cols[:], cols)
	return k, true
}

// Interner canonicalizes Order and Partition values by their literal column
// sequence, so the interesting-property lists and the plans of one
// optimization share one backing instance per distinct property value
// instead of re-allocating the same few column slices once per enumerated
// join. Interning is by raw column ids (not equivalence classes):
// equivalence is query-set relative, while sharing instances only requires
// literal identity. Safe for concurrent use, like the Scope that carries it.
// The zero value is ready to use; its
// maps are created lazily on the first intern (reads of a nil map are legal
// in Go), so embedding an unused Interner costs nothing.
type Interner struct {
	mu     sync.RWMutex
	orders map[internKey]Order
	parts  map[internKey]Partition
}

// Order returns the canonical Order on the given column sequence. The
// returned value shares its Cols slice with every other request for the
// same sequence; callers must treat it as immutable (Order callers already
// must, since lists expose shared slices).
func (in *Interner) Order(cols []query.ColID) Order {
	key, ok := makeInternKey(0, cols)
	if !ok {
		return Order{Cols: append([]query.ColID(nil), cols...)}
	}
	in.mu.RLock()
	o, hit := in.orders[key]
	in.mu.RUnlock()
	if hit {
		return o
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if o, hit := in.orders[key]; hit {
		return o
	}
	if in.orders == nil {
		in.orders = make(map[internKey]Order)
	}
	o = Order{Cols: append([]query.ColID(nil), cols...)}
	in.orders[key] = o
	return o
}

// Order1 returns the canonical single-column order — the overwhelmingly
// common case (one per equality join column) — without building a slice on
// the caller's side.
func (in *Interner) Order1(c query.ColID) Order {
	var cols [1]query.ColID
	cols[0] = c
	return in.Order(cols[:])
}

// Partition returns the canonical hash partition on the given node count
// and key columns, sharing its Cols slice like Order does.
func (in *Interner) Partition(nodes int, cols []query.ColID) Partition {
	key, ok := makeInternKey(nodes, cols)
	if !ok {
		return Partition{Cols: append([]query.ColID(nil), cols...), Nodes: nodes}
	}
	in.mu.RLock()
	p, hit := in.parts[key]
	in.mu.RUnlock()
	if hit {
		return p
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if p, hit := in.parts[key]; hit {
		return p
	}
	if in.parts == nil {
		in.parts = make(map[internKey]Partition)
	}
	p = Partition{Cols: append([]query.ColID(nil), cols...), Nodes: nodes}
	in.parts[key] = p
	return p
}
