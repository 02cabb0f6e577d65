package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/memo"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/query"
	"cote/internal/workload"
)

// The pair-path differential suite: the counter counts a pair from its two
// entries' predicate sides, builds join-column lists only where a column is
// read, and dedupes propagated single-column orders with representative
// marks. The oracle here is the column path it replaced: every join's
// columns and candidate partitions freshly looked up, every merge-order
// count a merge of order lists, every propagated order added by a scan of
// the list.

// columnPathCounts is one join's plan counts on the column path, given its
// outer join columns and candidate partitions.
func columnPathCounts(c *counter, outer, result *memo.Entry, oc []query.ColID, parts []props.Partition) PlanCounts {
	eq := &result.Equiv
	var pc PlanCounts
	if c.mode == CompoundLists {
		for _, pp := range parts {
			colocated := 0
			var distinct props.OrderList
			for _, v := range c.vecs[outer.Tables] {
				if c.parallel && !v.p.EqualUnder(pp, eq) {
					if !v.o.Empty() {
						distinct.Add(v.o, eq)
					}
					continue
				}
				colocated++
			}
			if c.parallel && colocated == 0 {
				colocated = 1 + distinct.Len()
			}
			pc.ByMethod[props.NLJN] += colocated
			if len(oc) > 0 {
				pc.ByMethod[props.MGJN] += oracleMergeOrderCount(outer, result, oc)
				pc.ByMethod[props.HSJN]++
			}
		}
		return pc
	}
	lanes := c.expTables.Intersect(outer.Tables).Len()
	if c.pipeFactor > 1 && outer.Tables.Len() >= 2 {
		lanes++
	}
	pc.ByMethod[props.NLJN] = (outer.Orders.Len() + 1 + lanes) * len(parts)
	if len(oc) > 0 {
		pc.ByMethod[props.MGJN] = oracleMergeOrderCount(outer, result, oc) * len(parts)
		pc.ByMethod[props.HSJN] = len(parts)
	}
	return pc
}

// columnPathParts is candidateParts on freshly looked-up join columns.
func columnPathParts(c *counter, outer, inner, result *memo.Entry, oc, ic []query.ColID) []props.Partition {
	if !c.parallel {
		return []props.Partition{{}}
	}
	joinCols := append(slices.Clone(oc), ic...)
	var list props.PartitionList
	for _, e := range []*memo.Entry{outer, inner} {
		for _, p := range e.Parts.Partitions() {
			if p.CoversJoinCols(joinCols, &result.Equiv) {
				list.Add(p, &result.Equiv)
			}
		}
	}
	if list.Len() == 0 {
		if len(oc) == 0 {
			return []props.Partition{{}}
		}
		list.Add(props.Partition{Cols: oc, Nodes: c.nodes}, &result.Equiv)
	}
	return list.Partitions()
}

// columnPathLists returns the order and partition lists the column path's
// propagation leaves at result, from copies of result's lists before it.
func columnPathLists(c *counter, outer, inner, result *memo.Entry, oc []query.ColID, candParts []props.Partition) (orders props.OrderList, parts props.PartitionList) {
	eq := &result.Equiv
	for _, o := range result.Orders.Orders() {
		orders.Add(o, eq)
	}
	for _, p := range result.Parts.Partitions() {
		parts.Add(p, eq)
	}
	for _, in := range []*memo.Entry{outer, inner} {
		if in == outer || in.OuterEligible {
			for _, o := range in.Orders.Orders() {
				if c.sc.OrderUseful(o, eq) {
					orders.Add(o, eq)
				}
			}
		}
	}
	for i := 0; i <= len(oc); i++ {
		if o := mergeOut(oc, i); c.sc.OrderUseful(o, eq) {
			orders.Add(props.Order{Cols: slices.Clone(o.Cols)}, eq)
		}
	}
	for _, pp := range candParts {
		if !pp.Empty() {
			parts.Add(pp, eq)
		}
	}
	return orders, parts
}

// pairPathStats tallies one run: the joins compared, the joins whose pair
// was not its result's first — where the closed form applies unless a
// crossing predicate shares a class or the outer holds a multi-column
// order — the joins that took it, counting with neither a representative
// lookup nor a column list, and the joins with a multi-column outer order.
type pairPathStats struct {
	joins, eligible, closed, multiCol int
}

// checkPairPath runs one block through the counter with a count-only fork
// beside it, as EstimateLevels does, and compares every join's counts, the
// fork's counts and the result's lists with the column path.
func checkPairPath(blk *query.Block, opts Options) (pairPathStats, error) {
	var st pairPathStats
	ws := acquireWorkspace(blk, nil, nil, opts)
	defer ws.release()
	c := &ws.cnt
	fork := c.fork()
	var err error
	var last [2]bitset.Set
	pairFirst := false
	hooks := enum.Hooks{Init: c.initialize}
	hooks.Join = func(outer, inner, result *memo.Entry) {
		if err != nil {
			return
		}
		if outer.Tables != last[1] || inner.Tables != last[0] {
			pairFirst = !result.PropsPropagated
		}
		last = [2]bitset.Set{outer.Tables, inner.Tables}
		where := func() string {
			return fmt.Sprintf("%s %v ⋈ %v (outer orders %v)", blk.Name, outer.Tables, inner.Tables, outer.Orders.Orders())
		}
		oc, ic := blk.AppendJoinCols(outer.Tables, inner.Tables, nil, nil)
		parts := columnPathParts(c, outer, inner, result, oc, ic)
		want := columnPathCounts(c, outer, result, oc, parts)
		// Lists only grow, and only a propagating join grows them.
		propagates := !result.PropsPropagated || c.everyJoin
		nOrders, nParts := result.Orders.Len(), result.Parts.Len()
		var wantOrders props.OrderList
		var wantParts props.PartitionList
		if propagates {
			wantOrders, wantParts = columnPathLists(c, outer, inner, result, oc, parts)
		}

		forkBefore, before := fork.counts, c.counts
		fork.countOnly(outer, inner, result)
		c.accumulatePlans(outer, inner, result)
		var got, forkGot PlanCounts
		for m := range got.ByMethod {
			got.ByMethod[m] = c.counts.ByMethod[m] - before.ByMethod[m]
			forkGot.ByMethod[m] = fork.counts.ByMethod[m] - forkBefore.ByMethod[m]
		}
		switch {
		case got != want:
			err = fmt.Errorf("%s: pair path counts %v, column path %v", where(), got.ByMethod, want.ByMethod)
			return
		case forkGot != want:
			err = fmt.Errorf("%s: count-only fork counts %v, column path %v", where(), forkGot.ByMethod, want.ByMethod)
			return
		}
		gotOrders := result.Orders.Orders()
		if !propagates {
			if len(gotOrders) != nOrders || result.Parts.Len() != nParts {
				err = fmt.Errorf("%s: a join into a propagated result grew its lists to %v, %v", where(), gotOrders, result.Parts.Partitions())
				return
			}
		} else if !slices.EqualFunc(gotOrders, wantOrders.Orders(), func(a, b props.Order) bool { return slices.Equal(a.Cols, b.Cols) }) {
			err = fmt.Errorf("%s: result orders %v, column path %v", where(), gotOrders, wantOrders.Orders())
			return
		}
		multi := slices.ContainsFunc(gotOrders, func(o props.Order) bool { return o.Len() > 1 })
		if result.MultiColOrders != multi {
			err = fmt.Errorf("%s: result MultiColOrders %v with orders %v", where(), result.MultiColOrders, gotOrders)
			return
		}
		if gp, wp := result.Parts.Partitions(), wantParts.Partitions(); propagates && !slices.EqualFunc(gp, wp, func(a, b props.Partition) bool { return a.EqualUnder(b, &result.Equiv) }) {
			err = fmt.Errorf("%s: result partitions %v, column path %v", where(), gp, wp)
			return
		}
		st.joins++
		if outer.MultiColOrders && c.cross > 0 {
			st.multiCol++
		}
		if !pairFirst && c.cross > 0 {
			st.eligible++
			o, i := outer.Tables, inner.Tables
			colsHeld := c.colsOuter == o && c.colsInner == i || c.colsOuter == i && c.colsInner == o
			if c.marked == 0 && !colsHeld {
				st.closed++
			}
		}
	}
	if _, e := ws.enumerator(opts.level(), opts).Run(hooks); e != nil {
		return st, e
	}
	return st, err
}

// pairPathConfigs are the counter configurations every block is checked
// under: both levels the service defaults between, first-join-only and
// every-join propagation, separate and compound lists.
var pairPathConfigs = []Options{
	{Level: opt.LevelHighInner2},
	{Level: opt.LevelHigh},
	{Level: opt.LevelHighInner2, PropagateEveryJoin: true},
	{Level: opt.LevelHigh, PropagateEveryJoin: true},
	{Level: opt.LevelHighInner2, ListMode: CompoundLists},
	{Level: opt.LevelHigh, ListMode: CompoundLists},
}

// checkPairPathConcurrently checks blk under every configuration at once,
// one goroutine each, so that under -race the shared block is seen to be
// only read. It returns the tally of the default configuration at
// LevelHigh.
func checkPairPathConcurrently(t *testing.T, blk *query.Block, cfg *cost.Config) pairPathStats {
	t.Helper()
	stats := make([]pairPathStats, len(pairPathConfigs))
	errs := make([]error, len(pairPathConfigs))
	var wg sync.WaitGroup
	for i, opts := range pairPathConfigs {
		opts.Config = cfg
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = checkPairPath(blk, opts)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("nodes %d, %+v: %v", cfg.Nodes, pairPathConfigs[i], err)
		}
	}
	return stats[1]
}

// TestPairPathMatchesColumnPath compares the pair path with the column path
// on every join of the workload blocks, serial and on 4 nodes, and of
// bench-shaped chains, stars and cliques, and requires the closed form on
// every bench clique join whose pair is not its result's first.
func TestPairPathMatchesColumnPath(t *testing.T) {
	type set struct {
		w   *workload.Workload
		cfg *cost.Config
	}
	var sets []set
	for _, nodes := range []int{1, 4} {
		cfg := cost.Serial
		if nodes > 1 {
			cfg = cost.Parallel4
		}
		for _, w := range []*workload.Workload{
			workload.Linear(nodes), workload.Star(nodes), workload.Real1(nodes),
			workload.Real2(nodes), workload.TPCH(nodes), workload.Random(3, 12, 8, nodes),
		} {
			sets = append(sets, set{w, cfg})
		}
	}
	total, multiCol := 0, 0
	for _, s := range sets {
		for _, q := range s.w.Queries {
			for _, blk := range q.Block.Blocks() {
				st := checkPairPathConcurrently(t, blk, s.cfg)
				total += st.joins
				multiCol += st.multiCol
			}
		}
	}
	for _, kind := range []string{"chain", "star", "clique"} {
		for n := 3; n <= 8; n++ {
			blk := benchShapeBlock(t, kind, n)
			checkPairPathConcurrently(t, blk, cost.Parallel4)
			st := checkPairPathConcurrently(t, blk, cost.Serial)
			total += st.joins
			if kind == "clique" && (st.eligible == 0 || st.closed != st.eligible) {
				t.Errorf("bench clique of %d: closed form on %d of %d eligible joins", n, st.closed, st.eligible)
			}
		}
	}
	if total < 100000 || multiCol < 1000 {
		t.Fatalf("only %d joins (%d with a multi-column outer order) compared", total, multiCol)
	}
}

// TestPairPathTransitiveAndMultiColumn pins the two ways out of the closed
// form on hand-built blocks: a transitive class x = x = x = x, none of whose
// predicates is lone, never takes it; a two-predicate edge and an ORDER BY
// on both its columns keep a multi-column order alive on the outer, which
// counts on the marker path.
func TestPairPathTransitiveAndMultiColumn(t *testing.T) {
	cb := catalog.NewBuilder("pairpath")
	for i := 0; i < 4; i++ {
		cb.Table(fmt.Sprintf("t%d", i), float64(1000*(i+1))).Column("x", 100).Column("y", 50).Column("z", 20)
	}
	cat := cb.Build()

	qb := query.NewBuilder("transitive", cat)
	for i := 0; i < 4; i++ {
		qb.AddTable(fmt.Sprintf("t%d", i), "")
	}
	qb.JoinEq("t0", "x", "t1", "x").JoinEq("t1", "x", "t2", "x").JoinEq("t2", "x", "t3", "x")
	transitive := qb.MustBuild()

	qb = query.NewBuilder("multicolumn", cat)
	for i := 0; i < 4; i++ {
		qb.AddTable(fmt.Sprintf("t%d", i), "")
	}
	qb.JoinEq("t0", "x", "t1", "x").JoinEq("t0", "y", "t1", "y").
		JoinEq("t1", "z", "t2", "z").JoinEq("t2", "y", "t3", "y")
	qb.OrderBy(qb.Col("t0", "x"), qb.Col("t0", "y"))
	multi := qb.MustBuild()

	for _, cfg := range []*cost.Config{cost.Serial, cost.Parallel4} {
		st := checkPairPathConcurrently(t, transitive, cfg)
		if cfg == cost.Serial && (st.eligible == 0 || st.closed != 0) {
			t.Errorf("transitive block: closed form on %d of %d eligible joins, want none", st.closed, st.eligible)
		}
		st = checkPairPathConcurrently(t, multi, cfg)
		if st.multiCol == 0 {
			t.Errorf("multi-column block, nodes %d: no join with a multi-column outer order", cfg.Nodes)
		}
	}
}
