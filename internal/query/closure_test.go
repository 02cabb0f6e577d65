package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
)

// Differential test of the transitive closure. The map-based closure it
// replaced is kept below as the oracle, body verbatim apart from taking the
// block as a parameter and asking the oracle for a column's table (the flat
// index is built by the Finalize under test). The order of the implied
// predicates is part of the contract — plan counts and with them the
// fingerprint cache's determinism depend on it — so JoinPreds and LocalPreds
// are compared with reflect.DeepEqual, order included.

// --- the oracle: the closure before the maps went ---

func oracleTransitiveClosure(b *Block) {
	uf := newUnionFind(make([]int32, len(b.Columns)))
	for _, p := range b.JoinPreds {
		if p.Op == Eq {
			uf.union(int(p.Left), int(p.Right))
		}
	}

	// Existing equality edges, keyed canonically.
	type edge struct{ a, b ColID }
	have := map[edge]bool{}
	canon := func(x, y ColID) edge {
		if x > y {
			x, y = y, x
		}
		return edge{x, y}
	}
	for _, p := range b.JoinPreds {
		if p.Op == Eq {
			have[canon(p.Left, p.Right)] = true
		}
	}

	// Group columns by equivalence class root; singleton classes carry no
	// implied predicates. Classes are visited in sorted root order: the
	// order in which implied predicates are appended is observable (it can
	// shift plan counts by a join or two through the property lists), and a
	// map-order walk would make estimates differ run to run for the same
	// query — fatal for the fingerprint cache's determinism guarantee.
	classes := map[int][]ColID{}
	for id := range b.Columns {
		root := uf.find(id)
		classes[root] = append(classes[root], ColID(id))
	}
	roots := make([]int, 0, len(classes))
	for root, members := range classes {
		if len(members) < 2 {
			delete(classes, root)
			continue
		}
		roots = append(roots, root)
	}
	sort.Ints(roots)

	for _, root := range roots {
		members := classes[root]
		// Implied join predicates between all cross-table pairs.
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				l, r := members[i], members[j]
				if oracleTableOf(b, l) == oracleTableOf(b, r) {
					continue
				}
				if have[canon(l, r)] {
					continue
				}
				have[canon(l, r)] = true
				b.JoinPreds = append(b.JoinPreds, JoinPred{Left: l, Right: r, Op: Eq, Implied: true})
			}
		}
		// Implied local equality predicates: a = const propagates to every
		// class member that lacks one.
		var src *LocalPred
		withEq := map[ColID]bool{}
		for i := range b.LocalPreds {
			lp := &b.LocalPreds[i]
			if lp.Op != Eq {
				continue
			}
			for _, m := range members {
				if lp.Col == m {
					withEq[m] = true
					if src == nil {
						src = lp
					}
				}
			}
		}
		if src != nil {
			for _, m := range members {
				if !withEq[m] {
					b.LocalPreds = append(b.LocalPreds, LocalPred{
						Col: m, Op: Eq, Selectivity: src.Selectivity, Implied: true,
					})
				}
			}
		}
	}
}

// closureCase populates a builder with a random join graph over n tables of
// six columns — the last a derived table when derived is set — and the
// local predicates, outer joins and clauses around it. Join columns are
// drawn mostly from columns 0 and 1 so that equality classes span many
// tables and put two members on one.
func closureCase(t *testing.T, rng *rand.Rand, name string, n int, edges [][2]int, derived bool) *Builder {
	t.Helper()
	const ncols = 6
	cb := catalog.NewBuilder(name)
	for i := 0; i < n; i++ {
		tb := cb.Table(fmt.Sprintf("t%d", i), 1000)
		for c := 0; c < ncols; c++ {
			tb.Column(fmt.Sprintf("c%d", c), float64(10+c))
		}
	}
	cat := cb.Build()
	qb := NewBuilder(name, cat)
	for i := 0; i < n; i++ {
		if derived && i == n-1 {
			child := NewBuilder(name+"/v", cat)
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
			op := Eq
			if rng.Intn(6) == 0 {
				op = PredOp(1 + rng.Intn(5))
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
			qb.Filter(c, Eq, 0.05) // explicit selectivity
		case 1:
			qb.Filter(c, PredOp(1+rng.Intn(5)), 0)
		case 2:
			qb.ExpensiveFilter(c, 0.5)
		default:
			qb.Filter(c, Eq, 0) // defaulted to 1/NDV before the closure runs
		}
	}
	if rng.Intn(3) == 0 {
		qb.LeftOuter(n-1, 0)
	}
	qb.GroupBy(qb.ColByTableIndex(0, 1)).OrderBy(qb.ColByTableIndex(n-1, 0))
	if err := qb.Err(); err != nil {
		t.Fatal(err)
	}
	return qb
}

func TestClosureMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var cases, wideClass, twoOnOneTable, nonEq, impliedLocal, impliedJoin, outer int
	for n := 3; n <= 12; n++ {
		for _, shape := range []struct {
			name  string
			edges func() [][2]int
		}{
			{"chain", func() [][2]int { return chainEdges(n) }},
			{"star", func() [][2]int { return starEdges(n) }},
			{"clique", func() [][2]int { return cliqueEdges(n) }},
			{"random", func() [][2]int { return randomEdges(n, rng) }},
		} {
			for rep := 0; rep < 6; rep++ {
				name := fmt.Sprintf("%s%d_%d", shape.name, n, rep)
				qb := closureCase(t, rng, name, n, shape.edges(), rep == 5)

				// The oracle runs on a copy of the block as Finalize's
				// closure step finds it: selectivities defaulted, nothing
				// implied yet.
				want := *qb.b
				want.JoinPreds = slices.Clone(qb.b.JoinPreds)
				want.LocalPreds = slices.Clone(qb.b.LocalPreds)
				want.defaultSelectivities()
				oracleTransitiveClosure(&want)

				blk, err := qb.Build()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(blk.JoinPreds, want.JoinPreds) {
					t.Fatalf("%s: JoinPreds\n got  %+v\n want %+v", name, blk.JoinPreds, want.JoinPreds)
				}
				if !reflect.DeepEqual(blk.LocalPreds, want.LocalPreds) {
					t.Fatalf("%s: LocalPreds\n got  %+v\n want %+v", name, blk.LocalPreds, want.LocalPreds)
				}

				// What the corpus exercised, from the finished block.
				cases++
				outer += len(blk.OuterJoins)
				for _, p := range blk.LocalPreds {
					if p.Implied {
						impliedLocal++
					}
				}
				for _, p := range blk.JoinPreds {
					if p.Implied {
						impliedJoin++
					}
					if p.Op != Eq {
						nonEq++
					}
				}
				eq := blk.EquivWithin(blk.AllTables())
				tablesOf := map[ColID]bitset.Set{}
				membersOf := map[ColID]int{}
				for id := range blk.Columns {
					rep := eq.Rep(ColID(id))
					tablesOf[rep] = tablesOf[rep].Add(blk.TableOf(ColID(id)))
					membersOf[rep]++
				}
				for rep, ts := range tablesOf {
					if ts.Len() >= 4 {
						wideClass++
					}
					if membersOf[rep] > ts.Len() {
						twoOnOneTable++
					}
				}
			}
		}
	}
	t.Logf("%d blocks: %d implied join and %d implied local predicates, %d non-Eq join predicates, %d outer joins, %d classes over >= 4 tables, %d classes with two members on a table",
		cases, impliedJoin, impliedLocal, nonEq, outer, wideClass, twoOnOneTable)
	for what, n := range map[string]int{
		"implied join predicates": impliedJoin, "implied local predicates": impliedLocal,
		"non-Eq join predicates": nonEq, "outer joins": outer,
		"classes spanning four tables": wideClass, "classes with two members on one table": twoOnOneTable,
	} {
		if n == 0 {
			t.Errorf("the corpus has no %s", what)
		}
	}
}
