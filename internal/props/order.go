// Package props implements the physical plan properties of the reproduced
// optimizer — orders and (for the shared-nothing parallel version) data
// partitions — together with the operations the paper's estimator relies
// on: equivalence under applied join predicates, prefix and set subsumption,
// interest ("is this property still useful for any remaining operation?"),
// and retirement.
//
// A physical property, per the paper, is any plan characteristic that
// violates the principle of optimality: two plans for the same logical
// expression that differ in such a property must both be kept in the MEMO
// structure, which is exactly why the number of generated join plans — the
// quantity the estimator counts — varies so much between queries with
// identical join graphs.
package props

import (
	"strconv"
	"strings"

	"cote/internal/query"
)

// Order is a physical tuple ordering: the sequence of columns the rows are
// sorted on. The zero value (nil) is "no order" / don't-care.
type Order struct {
	Cols []query.ColID
}

// OrderOn builds an order on the given column sequence.
func OrderOn(cols ...query.ColID) Order {
	return Order{Cols: cols}
}

// Empty reports whether the order is the don't-care order.
func (o Order) Empty() bool { return len(o.Cols) == 0 }

// Len returns the number of ordering columns.
func (o Order) Len() int { return len(o.Cols) }

// EqualUnder reports whether o and p are the same ordering when columns are
// compared by equivalence class. Joins change equivalence — an order on R.a
// and one on S.a become the same order once R.a = S.a has been applied — so
// equality is always relative to an Equiv.
func (o Order) EqualUnder(p Order, eq *query.Equiv) bool {
	if len(o.Cols) != len(p.Cols) {
		return false
	}
	for i := range o.Cols {
		if !eq.Same(o.Cols[i], p.Cols[i]) {
			return false
		}
	}
	return true
}

// PrefixOfUnder reports whether o is a (non-strict) prefix of p modulo
// equivalence: o ≺ p or o = p in the paper's subsumption notation. An order
// on (R.a) is subsumed by the more general (R.a, R.b).
func (o Order) PrefixOfUnder(p Order, eq *query.Equiv) bool {
	if len(o.Cols) > len(p.Cols) {
		return false
	}
	for i := range o.Cols {
		if !eq.Same(o.Cols[i], p.Cols[i]) {
			return false
		}
	}
	return true
}

// SetSubsetOfUnder reports whether the column set of o is a subset of the
// column set of p modulo equivalence. This is the "set subsumption" the
// paper applies for GROUP BY coverage, where relative column positions do
// not matter.
func (o Order) SetSubsetOfUnder(p Order, eq *query.Equiv) bool {
	for _, c := range o.Cols {
		found := false
		for _, d := range p.Cols {
			if eq.Same(c, d) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the order under the given equivalence,
// usable for map-based deduplication: equal-under-equiv orders produce equal
// keys.
func (o Order) Key(eq *query.Equiv) string {
	if len(o.Cols) == 0 {
		return "-"
	}
	var b strings.Builder
	for i, c := range o.Cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(eq.Rep(c))))
	}
	return b.String()
}

// String renders the order for diagnostics using raw column ids.
func (o Order) String() string {
	if len(o.Cols) == 0 {
		return "DC"
	}
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range o.Cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(c)))
	}
	b.WriteByte(')')
	return b.String()
}

// OrderList is a deduplicated list of interesting orders attached to a MEMO
// entry, the central data structure of the paper's estimation algorithm
// (Table 3).
type OrderList struct {
	orders []Order
}

// Orders exposes the underlying slice; callers must not mutate it (the MEMO,
// which owns its entries' lists, moves a stored order's columns into its
// arena).
func (l *OrderList) Orders() []Order { return l.orders }

// Reset empties the list, keeping its capacity — for allocation-free reuse
// as a per-join dedup scratchpad on the plan-generation hot path.
func (l *OrderList) Reset() { l.orders = l.orders[:0] }

// Clear empties the list like Reset but also zeroes the retained backing
// array, dropping the column-slice pointers the stale orders held — for
// pooled storage (slab-allocated MEMO entries) that must not pin one run's
// allocations across a reuse boundary.
func (l *OrderList) Clear() {
	clear(l.orders[:cap(l.orders)])
	l.orders = l.orders[:0]
}

// Len returns the number of orders in the list.
func (l *OrderList) Len() int { return len(l.orders) }

// Add inserts o unless an equivalent order is already present. It reports
// whether the order was inserted.
func (l *OrderList) Add(o Order, eq *query.Equiv) bool {
	if o.Empty() {
		return false
	}
	for _, have := range l.orders {
		if have.EqualUnder(o, eq) {
			return false
		}
	}
	l.orders = append(l.orders, o)
	return true
}

// Push appends o, which the caller knows has no equivalent in the list —
// for callers that deduplicate by other means than Add's scan.
func (l *OrderList) Push(o Order) { l.orders = append(l.orders, o) }

// Contains reports whether an order equivalent to o is in the list.
func (l *OrderList) Contains(o Order, eq *query.Equiv) bool {
	for _, have := range l.orders {
		if have.EqualUnder(o, eq) {
			return true
		}
	}
	return false
}
