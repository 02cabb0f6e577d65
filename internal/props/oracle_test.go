package props

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
	"cote/internal/workload"
)

// Differential tests of the scope's interest answers. The future-join-column
// walk they used to come from is kept below as the oracle, body verbatim
// apart from its memo and lock. (The join-column walk's oracle sits with the
// code that replaced it, in query/predsets_test.go.)

// --- oracles: the scope before the predicate sets ---

// oracleEqPreds is the index list of equality join predicates the scope used
// to build at construction.
func oracleEqPreds(blk *query.Block) []int {
	var eq []int
	for i, p := range blk.JoinPreds {
		if p.Op == query.Eq {
			eq = append(eq, i)
		}
	}
	return eq
}

func oracleFutureJoinCols(sc *Scope, s bitset.Set) []query.ColID {
	out := []query.ColID{}
	for _, i := range oracleEqPreds(sc.blk) {
		p := sc.blk.JoinPreds[i]
		lt, rt := sc.blk.Column(p.Left).Ref.Index, sc.blk.Column(p.Right).Ref.Index
		switch {
		case s.Contains(lt) && !s.Contains(rt):
			out = append(out, p.Left)
		case s.Contains(rt) && !s.Contains(lt):
			out = append(out, p.Right)
		}
	}
	return out
}

func oracleFutureJoinInterest(sc *Scope, o Order, s bitset.Set, eq *query.Equiv) bool {
	for _, c := range oracleFutureJoinCols(sc, s) {
		if eq.Same(o.Cols[0], c) {
			return true
		}
	}
	return false
}

func oraclePartitionUseful(sc *Scope, p Partition, s bitset.Set, eq *query.Equiv) bool {
	if p.Empty() {
		return false
	}
	if p.CoversJoinCols(oracleFutureJoinCols(sc, s), eq) {
		return true
	}
	if gb := sc.blk.GroupBy; len(gb) > 0 {
		if (Order{Cols: p.Cols}).SetSubsetOfUnder(Order{Cols: gb}, eq) {
			return true
		}
	}
	return false
}

// --- the blocks ---

// oracleBlock joins n tables along edges with preds predicates per edge (one
// in seven a <), grouped on two columns of table 1. With shared columns the
// transitive closure adds implied predicates.
func oracleBlock(t testing.TB, name string, n, preds int, shared bool, edges [][2]int) *query.Block {
	t.Helper()
	cb := catalog.NewBuilder(name)
	for i := 0; i < n; i++ {
		tb := cb.Table(fmt.Sprintf("t%d", i), 1000)
		for c := 0; c < n*preds; c++ {
			tb.Column(fmt.Sprintf("c%d", c), 50)
		}
	}
	qb := query.NewBuilder(name, cb.Build())
	for i := 0; i < n; i++ {
		qb.AddTable(fmt.Sprintf("t%d", i), "")
	}
	k := 0
	for _, e := range edges {
		for j := 0; j < preds; j++ {
			lc, rc := e[1]*preds+j, e[0]*preds+j
			if shared {
				lc, rc = j, j
			}
			op := query.Eq
			if k++; k%7 == 0 {
				op = query.Lt
			}
			qb.Join(qb.ColByTableIndex(e[0], lc), qb.ColByTableIndex(e[1], rc), op)
		}
	}
	qb.GroupBy(qb.ColByTableIndex(1, 0), qb.ColByTableIndex(1, 1))
	blk, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func oracleBlocks(t testing.TB) []*query.Block {
	var chain7, star8, clique6, random7 [][2]int
	for i := 0; i+1 < 7; i++ {
		chain7 = append(chain7, [2]int{i + 1, i})
	}
	for i := 1; i < 8; i++ {
		star8 = append(star8, [2]int{0, i})
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			clique6 = append(clique6, [2]int{j, i})
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 1; i < 7; i++ {
		random7 = append(random7, [2]int{i, rng.Intn(i)})
	}
	random7 = append(random7, [2]int{0, 5}, [2]int{6, 2}, [2]int{3, 1})
	rng.Shuffle(len(random7), func(i, j int) { random7[i], random7[j] = random7[j], random7[i] })
	return []*query.Block{
		oracleBlock(t, "chain7x2", 7, 2, false, chain7),
		oracleBlock(t, "star8", 8, 1, false, star8),
		oracleBlock(t, "clique6x2", 6, 2, false, clique6),
		oracleBlock(t, "random7", 7, 1, false, random7),
		oracleBlock(t, "chain7implied", 7, 2, true, chain7),
		oracleBlock(t, "random7implied", 7, 1, true, random7),
	}
}

func TestScopeMatchesOracle(t *testing.T) {
	for _, blk := range oracleBlocks(t) {
		sc := NewScope(blk)
		ncols := query.ColID(len(blk.Columns))
		full := blk.AllTables()
		for s := bitset.Set(0); s <= full; s++ {
			eq := blk.EquivWithin(s)
			for c := query.ColID(0); c < ncols; c++ {
				next := (c + 1) % ncols
				for _, o := range []Order{OrderOn(c), OrderOn(c, next)} {
					if got, want := sc.OrderInterest(o, eq).FutureJoin, oracleFutureJoinInterest(sc, o, s, eq); got != want {
						t.Fatalf("%s set %v order %v: future-join interest %v, oracle %v", blk.Name, s, o, got, want)
					}
				}
				for _, p := range []Partition{PartitionOn(4, c), PartitionOn(4, c, next)} {
					if got, want := sc.PartitionUseful(p, eq), oraclePartitionUseful(sc, p, s, eq); got != want {
						t.Fatalf("%s set %v partition %v: useful %v, oracle %v", blk.Name, s, p.Cols, got, want)
					}
				}
			}
		}
	}
}

// TestScopeSharedLockFree reads one scope and one set of equivalences from
// several goroutines at once: the scope holds no memo and no lock, so under
// -race this is the test that it is in fact only read.
func TestScopeSharedLockFree(t *testing.T) {
	blk := oracleBlocks(t)[2]
	sc := NewScope(blk)
	full := blk.AllTables()
	eqs := make([]*query.Equiv, full+1)
	want := make([][]query.ColID, full+1) // join columns toward the rest, read serially
	for s := bitset.Set(0); s <= full; s++ {
		eqs[s] = blk.EquivWithin(s)
		want[s], _ = blk.AppendJoinCols(s, full.Diff(s), nil, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var oc, ic []query.ColID
			for s := bitset.Set(1); s < full; s++ {
				oc, ic = blk.AppendJoinCols(s, full.Diff(s), oc[:0], ic[:0])
				if !slices.Equal(oc, want[s]) {
					t.Errorf("goroutine %d: %v: join columns %v, serial read %v", g, s, oc, want[s])
					return
				}
				for _, c := range oc {
					if !sc.OrderUseful(OrderOn(c), eqs[s]) {
						t.Errorf("goroutine %d: %v: order on join column %d not useful", g, s, c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// --- oracles: base-order generation before it worked in caller storage ---
//
// Bodies verbatim apart from taking the equality-predicate list from
// oracleEqPreds: a walk over every equality predicate per table, a map from
// peer table to columns, a variadic slice per order.

func oracleEagerBaseOrders(sc *Scope, t int, eq *query.Equiv) []Order {
	blk := sc.blk
	eqPreds := oracleEqPreds(blk)
	var list OrderList

	// Single-column orders on each equality join column of t.
	for _, i := range eqPreds {
		p := blk.JoinPreds[i]
		if blk.TableOf(p.Left) == t {
			list.Add(OrderOn(p.Left), eq)
		}
		if blk.TableOf(p.Right) == t {
			list.Add(OrderOn(p.Right), eq)
		}
	}

	// Composite orders: all of t's columns joining to one particular other
	// table, in predicate order — the sort a multi-column merge join needs.
	perPeer := map[int][]query.ColID{}
	var peers []int
	for _, i := range eqPreds {
		p := blk.JoinPreds[i]
		var mine query.ColID
		var peer int
		switch {
		case blk.TableOf(p.Left) == t:
			mine, peer = p.Left, blk.TableOf(p.Right)
		case blk.TableOf(p.Right) == t:
			mine, peer = p.Right, blk.TableOf(p.Left)
		default:
			continue
		}
		if _, seen := perPeer[peer]; !seen {
			peers = append(peers, peer)
		}
		perPeer[peer] = append(perPeer[peer], mine)
	}
	for _, peer := range peers {
		if cols := perPeer[peer]; len(cols) >= 2 {
			list.Add(OrderOn(cols...), eq)
		}
	}

	// Maximal ORDER BY prefix whose columns all belong to t.
	var obPrefix []query.ColID
	for _, c := range blk.OrderBy {
		if blk.TableOf(c) != t {
			break
		}
		obPrefix = append(obPrefix, c)
	}
	if len(obPrefix) > 0 {
		list.Add(OrderOn(obPrefix...), eq)
	}

	// Grouping columns local to t, in list order.
	var gbCols []query.ColID
	for _, c := range blk.GroupBy {
		if blk.TableOf(c) == t {
			gbCols = append(gbCols, c)
		}
	}
	if len(gbCols) > 0 {
		list.Add(OrderOn(gbCols...), eq)
	}

	return list.Orders()
}

func oracleNaturalBaseOrders(sc *Scope, t int, eq *query.Equiv) []Order {
	ref := sc.blk.Tables[t]
	if ref.Table == nil {
		return nil // derived tables provide no natural order
	}
	var list OrderList
	for _, ix := range ref.Table.Indexes {
		cols := make([]query.ColID, 0, len(ix.Columns))
		for _, name := range ix.Columns {
			cols = append(cols, sc.colOf(ref, name))
		}
		list.Add(OrderOn(cols...), eq)
	}
	return list.Orders()
}

// closureCorpus rebuilds the 240 generated blocks of
// query/closure_test.go — same seed, same draws, through the public builder
// (that file's generator lives in package query's own tests and cannot be
// imported): random join graphs over 3..12 six-column tables with
// multi-predicate edges, join columns drawn mostly from columns 0 and 1,
// non-equality predicates, local and expensive predicates, an outer join in
// a third of them, GROUP BY and ORDER BY, and every sixth with a derived
// table.
func closureCorpus(t *testing.T) []*query.Block {
	t.Helper()
	const ncols = 6
	rng := rand.New(rand.NewSource(19))
	build := func(name string, n int, edges [][2]int, derived bool) *query.Block {
		cb := catalog.NewBuilder(name)
		for i := 0; i < n; i++ {
			tb := cb.Table(fmt.Sprintf("t%d", i), 1000)
			for c := 0; c < ncols; c++ {
				tb.Column(fmt.Sprintf("c%d", c), float64(10+c))
			}
		}
		cat := cb.Build()
		qb := query.NewBuilder(name, cat)
		for i := 0; i < n; i++ {
			if derived && i == n-1 {
				child := query.NewBuilder(name+"/v", cat)
				child.AddTable("t0", "x")
				child.AddTable("t1", "y")
				child.JoinEq("x", "c0", "y", "c0").FilterEq("y", "c0")
				for c := 0; c < ncols; c++ {
					child.SelectCols(child.ColByTableIndex(c%2, c))
				}
				qb.AddDerived(child.MustBuild(), "v", false)
				continue
			}
			qb.AddTable(fmt.Sprintf("t%d", i), "")
		}
		col := func() int {
			if rng.Intn(4) > 0 {
				return rng.Intn(2)
			}
			return rng.Intn(ncols)
		}
		for _, e := range edges {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				op := query.Eq
				if rng.Intn(6) == 0 {
					op = query.PredOp(1 + rng.Intn(5))
				}
				a, b := e[0], e[1]
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
				qb.Join(qb.ColByTableIndex(a, col()), qb.ColByTableIndex(b, col()), op)
			}
		}
		for k := rng.Intn(n + 1); k > 0; k-- {
			c := qb.ColByTableIndex(rng.Intn(n), col())
			switch rng.Intn(5) {
			case 0:
				qb.Filter(c, query.Eq, 0.05)
			case 1:
				qb.Filter(c, query.PredOp(1+rng.Intn(5)), 0)
			case 2:
				qb.ExpensiveFilter(c, 0.5)
			default:
				qb.Filter(c, query.Eq, 0)
			}
		}
		if rng.Intn(3) == 0 {
			qb.LeftOuter(n-1, 0)
		}
		qb.GroupBy(qb.ColByTableIndex(0, 1)).OrderBy(qb.ColByTableIndex(n-1, 0))
		blk, err := qb.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return blk
	}
	var out []*query.Block
	for n := 3; n <= 12; n++ {
		for _, shape := range []string{"chain", "star", "clique", "random"} {
			for rep := 0; rep < 6; rep++ {
				var edges [][2]int
				switch shape {
				case "chain":
					for i := 0; i+1 < n; i++ {
						edges = append(edges, [2]int{i, i + 1})
					}
				case "star":
					for i := 1; i < n; i++ {
						edges = append(edges, [2]int{0, i})
					}
				case "clique":
					for i := 0; i < n; i++ {
						for j := i + 1; j < n; j++ {
							edges = append(edges, [2]int{i, j})
						}
					}
				case "random": // a spanning tree plus extra edges, shuffled
					have := map[[2]int]bool{}
					add := func(a, b int) {
						key := [2]int{min(a, b), max(a, b)}
						if a != b && !have[key] {
							have[key] = true
							edges = append(edges, [2]int{a, b})
						}
					}
					for i := 1; i < n; i++ {
						add(i, rng.Intn(i))
					}
					for k := 0; k < n; k++ {
						add(rng.Intn(n), rng.Intn(n))
					}
					rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				}
				out = append(out, build(fmt.Sprintf("%s%d_%d", shape, n, rep), n, edges, rep == 5))
			}
		}
	}
	return out
}

// TestBaseOrdersMatchOracle compares the base orders built in caller storage
// from the block's per-table predicate sets with the map-and-walk versions
// above, element-wise — the column sequence of every order and the order of
// the list, which the counter's first-join-only propagation makes observable
// — for every table of every block of the paper's workloads, serial and
// four-node, and of the generated corpus. One scratch serves a whole block,
// so an order leaking from one table's call into the next would show too.
func TestBaseOrdersMatchOracle(t *testing.T) {
	var blocks []*query.Block
	for _, nodes := range []int{1, 4} {
		for _, w := range []*workload.Workload{
			workload.Linear(nodes), workload.Star(nodes), workload.Clique(nodes), workload.Random(42, 12, 10, nodes),
			workload.Real1(nodes), workload.Real2(nodes), workload.TPCH(nodes),
		} {
			for _, q := range w.Queries {
				blocks = append(blocks, q.Block.Blocks()...)
			}
		}
	}
	for _, blk := range closureCorpus(t) {
		blocks = append(blocks, blk.Blocks()...)
	}
	equal := func(got, want []Order) bool {
		return slices.EqualFunc(got, want, func(a, b Order) bool { return slices.Equal(a.Cols, b.Cols) })
	}
	var s BaseOrders
	tables, composite, clause := 0, 0, 0
	for _, blk := range blocks {
		sc := NewScope(blk)
		for tab := range blk.Tables {
			eq := blk.EquivWithin(bitset.Single(tab))
			want := oracleEagerBaseOrders(sc, tab, eq)
			if got := sc.EagerBaseOrders(tab, eq, &s); !equal(got, want) {
				t.Fatalf("%s table %d: eager base orders %v, oracle %v", blk.Name, tab, got, want)
			}
			for _, o := range want {
				if o.Len() > 1 {
					composite++
				}
			}
			if len(blk.OrderBy)+len(blk.GroupBy) > 0 {
				clause++
			}
			want = oracleNaturalBaseOrders(sc, tab, eq)
			if got := sc.NaturalBaseOrders(tab, eq, &s); !equal(got, want) {
				t.Fatalf("%s table %d: natural base orders %v, oracle %v", blk.Name, tab, got, want)
			}
			tables++
		}
	}
	if tables < 2500 || composite < 1000 || clause < 1000 {
		t.Fatalf("only %d tables compared (%d multi-column orders, %d tables under an ORDER BY or GROUP BY)", tables, composite, clause)
	}
	t.Logf("%d tables of %d blocks: %d multi-column orders, %d tables under an ORDER BY or GROUP BY", tables, len(blocks), composite, clause)
}
