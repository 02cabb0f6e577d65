package core

import (
	"slices"
	"testing"

	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/memo"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/query"
	"cote/internal/workload"
)

// oracleMergeOrderCount is the counter's merge-order count as a merge of
// order lists over the join's outer columns — the body before it became
// arithmetic over class representatives, verbatim apart from owning its
// scratch.
func oracleMergeOrderCount(outer, result *memo.Entry, outerCols []query.ColID) int {
	var outs []props.Order
	for i := range outerCols {
		outs = append(outs, props.Order{Cols: outerCols[i : i+1]})
	}
	if len(outerCols) > 1 {
		outs = append(outs, props.Order{Cols: outerCols})
	}
	var emitted props.OrderList
	n := 0
	for _, o := range outs {
		if emitted.Add(o, &result.Equiv) {
			n++
		}
	}
	for _, o := range outer.Orders.Orders() {
		covers := false
		for _, cand := range outs {
			if o.Len() > cand.Len() && cand.PrefixOfUnder(o, &result.Equiv) {
				covers = true
				break
			}
		}
		if covers && emitted.Add(o, &result.Equiv) {
			n++
		}
	}
	return n
}

// TestMergeOrderCountMatchesOracle runs the counter over serial and
// parallel, sparse and dense, single- and multi-block workloads and checks,
// at every enumerated join, the merge-order count against the list-merge
// oracle and the counter's join columns — looked up once per pair, swapped
// for the second orientation — and pair facts against a fresh lookup.
func TestMergeOrderCountMatchesOracle(t *testing.T) {
	var queries []workload.Query
	for _, w := range []*workload.Workload{
		workload.Real2(1), workload.Real1(4), workload.Random(3, 12, 8, 1),
		workload.Clique(1), workload.Star(4), workload.Linear(1),
	} {
		queries = append(queries, w.Queries...)
	}
	joins, multi := 0, 0
	for _, q := range queries {
		for _, blk := range q.Block.Blocks() {
			if blk.NumTables() > 8 {
				continue // the 10-table batches only repeat the shapes, slowly
			}
			nodes := 1
			for _, ref := range blk.Tables {
				if ref.Table != nil && ref.Table.Partitioning != nil {
					nodes = ref.Table.Partitioning.Nodes
				}
			}
			cfg := cost.Serial
			if nodes > 1 {
				cfg = &cost.Config{Nodes: nodes}
			}
			opts := Options{Level: opt.LevelHigh, Config: cfg}
			ws := acquireWorkspace(blk, nil, nil, opts)
			c := &ws.cnt
			hooks := enum.Hooks{Init: c.initialize}
			hooks.Join = func(outer, inner, result *memo.Entry) {
				c.accumulatePlans(outer, inner, result)
				oc, ic := blk.AppendJoinCols(outer.Tables, inner.Tables, nil, nil)
				if gotOC, gotIC := c.joinCols(outer, inner); !slices.Equal(gotOC, oc) || !slices.Equal(gotIC, ic) || c.cross != len(oc) {
					t.Fatalf("%s %v ⋈ %v: counter join columns %v / %v (%d crossing), fresh lookup %v / %v",
						q.Name, outer.Tables, inner.Tables, gotOC, gotIC, c.cross, oc, ic)
				}
				got, want := c.mergeOrders(outer, inner, result), oracleMergeOrderCount(outer, result, oc)
				if got != want {
					t.Fatalf("%s %v ⋈ %v on %v with outer orders %v: merge orders %d, oracle %d",
						q.Name, outer.Tables, inner.Tables, oc, outer.Orders.Orders(), got, want)
				}
				joins++
				if len(oc) > 1 {
					multi++
				}
			}
			if _, err := ws.enumerator(opts.Level, opts).Run(hooks); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			ws.release()
		}
	}
	if joins < 10000 || multi < 1000 {
		t.Fatalf("only %d joins (%d multi-column) compared", joins, multi)
	}
}
