package plangen

import (
	"cote/internal/props"
	"cote/internal/query"
)

// internMaxCols bounds the column count the generator interns; a longer
// sequence (rare — no workload exceeds 4 ordering columns) gets columns of
// its own, which costs memory but never changes a plan.
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

// internOrder returns the block's canonical Order on the column sequence:
// the merge candidates every join asks for again share one instance, whose
// columns live in the MEMO's column arena like every stored property, instead
// of taking columns of their own once per enumerated join. Interning is by
// raw column ids (not equivalence classes): equivalence is query-set
// relative, while sharing instances only requires literal identity. Callers
// must treat the columns as immutable.
func (g *Generator) internOrder(cols []query.ColID) props.Order {
	key, ok := makeInternKey(0, cols)
	if !ok {
		return props.Order{Cols: g.mem.KeepCols(cols)}
	}
	if o, hit := g.orders[key]; hit {
		return o
	}
	if g.orders == nil {
		g.orders = make(map[internKey]props.Order)
	}
	o := props.Order{Cols: g.mem.KeepCols(cols)}
	g.orders[key] = o
	return o
}

// internPartition is internOrder for the hash partition on nodes nodes and
// the key columns.
func (g *Generator) internPartition(nodes int, cols []query.ColID) props.Partition {
	key, ok := makeInternKey(nodes, cols)
	if !ok {
		return props.Partition{Cols: g.mem.KeepCols(cols), Nodes: nodes}
	}
	if p, hit := g.parts[key]; hit {
		return p
	}
	if g.parts == nil {
		g.parts = make(map[internKey]props.Partition)
	}
	p := props.Partition{Cols: g.mem.KeepCols(cols), Nodes: nodes}
	g.parts[key] = p
	return p
}
