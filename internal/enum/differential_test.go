package enum

import (
	"fmt"
	"math/rand"
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/cost"
	"cote/internal/memo"
	"cote/internal/query"
)

// The differential suite checks the enumerator's size-class scan against a
// test-only oracle — the unconditioned DPsize cross product — for random
// query graphs across every knob combination: Run must produce the oracle's
// stats and its emission sequence, join for join.

// emission is one emitted ordered join, identified by table sets (entry
// pointers differ across runs).
type emission struct {
	outer, inner, result bitset.Set
}

// diffGraph describes one generated query graph.
type diffGraph struct {
	name  string
	n     int
	edges [][2]int
	// outerJoins lists (nullProducing, predReq-table) pairs.
	outerJoins [][2]int
	// selective lists tables that get a highly selective filter, driving
	// their cardinality under the CartesianCardOne threshold.
	selective []int
}

// genGraph builds a random graph of the given family. All families start
// connected (chain/star/cycle/clique), then pick up random extra edges,
// outer joins, and selective filters from rng.
func genGraph(family string, n int, rng *rand.Rand) diffGraph {
	g := diffGraph{name: fmt.Sprintf("%s%d", family, n), n: n}
	switch family {
	case "chain":
		for i := 0; i+1 < n; i++ {
			g.edges = append(g.edges, [2]int{i, i + 1})
		}
	case "star":
		for i := 1; i < n; i++ {
			g.edges = append(g.edges, [2]int{0, i})
		}
	case "cycle":
		for i := 0; i+1 < n; i++ {
			g.edges = append(g.edges, [2]int{i, i + 1})
		}
		if n > 2 {
			g.edges = append(g.edges, [2]int{n - 1, 0})
		}
	case "clique":
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.edges = append(g.edges, [2]int{i, j})
			}
		}
	case "sparse":
		// A random spanning tree plus a few extra edges — the shape real
		// snowflake workloads take.
		for i := 1; i < n; i++ {
			g.edges = append(g.edges, [2]int{rng.Intn(i), i})
		}
	}
	if family != "clique" {
		for e := 0; e < n/3; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.edges = append(g.edges, [2]int{min(a, b), max(a, b)})
			}
		}
	}
	// Random outer joins: a table becomes null-producing with its first
	// graph neighbor as the preserving requirement.
	for t := 1; t < n; t++ {
		if rng.Intn(4) != 0 {
			continue
		}
		for _, e := range g.edges {
			if e[0] == t {
				g.outerJoins = append(g.outerJoins, [2]int{t, e[1]})
				break
			}
			if e[1] == t {
				g.outerJoins = append(g.outerJoins, [2]int{t, e[0]})
				break
			}
		}
		if len(g.outerJoins) >= 2 {
			break // the valid-set rules compose; two suffice per graph
		}
	}
	for t := 0; t < n; t++ {
		if rng.Intn(3) == 0 {
			g.selective = append(g.selective, t)
		}
	}
	return g
}

// buildDiffBlock materializes the graph as a query block. Every table gets
// one join column per peer so arbitrary edge sets are expressible.
func buildDiffBlock(tb testing.TB, g diffGraph) *query.Block {
	tb.Helper()
	cb := catalog.NewBuilder(g.name)
	for i := 0; i < g.n; i++ {
		t := cb.Table(tname(i), 1000*float64(i+1))
		for j := 0; j < g.n; j++ {
			t.Column(colname(j), 50)
		}
	}
	cat := cb.Build()
	qb := query.NewBuilder(g.name, cat)
	for i := 0; i < g.n; i++ {
		qb.AddTable(tname(i), "")
	}
	// Deduplicate edges: repeated predicates between a pair are legal but
	// make the graph multigraph-shaped for no extra coverage.
	seen := map[[2]int]bool{}
	for _, e := range g.edges {
		if seen[e] {
			continue
		}
		seen[e] = true
		qb.JoinEq(tname(e[0]), colname(e[1]), tname(e[1]), colname(e[0]))
	}
	for _, oj := range g.outerJoins {
		qb.LeftOuter(oj[0], oj[1])
	}
	for _, t := range g.selective {
		qb.Filter(qb.Col(tname(t), colname(t)), query.Eq, 1e-4)
	}
	blk, err := qb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return blk
}

// runOracle is the reference enumeration: the DPsize loop over every
// (size-i, size-j) slot of every size class, with no class precheck and no
// skips, so CandidatesVisited is the whole cross product. It shares the
// per-pair admission (joinable, tryEmit) with the enumerator; what it pins is
// that nothing scanSizeClass leaves out could have joined.
func runOracle(blk *query.Block, opts Options) (Stats, []emission, error) {
	mem := memo.New(blk.NumTables())
	en := New(blk, mem, cost.NewEstimator(blk, cost.Simple), opts)
	var st Stats
	var seq []emission
	record := Hooks{Join: func(outer, inner, result *memo.Entry) {
		seq = append(seq, emission{outer.Tables, inner.Tables, result.Tables})
	}}
	en.runBase(&st, record)
	for k := 2; k <= blk.NumTables(); k++ {
		for i := 1; i <= k/2; i++ {
			j := k - i
			for si, S := range mem.OfSize(i) {
				for li, L := range mem.OfSize(j) {
					if i == j && li <= si {
						continue // unordered pairs once
					}
					st.CandidatesVisited++
					if S.Tables.Overlaps(L.Tables) || !en.joinable(S, L) {
						continue
					}
					en.tryEmit(S, L, &st, record)
				}
			}
		}
	}
	return st, seq, en.checkRoot()
}

// runSerial enumerates blk under opts with Run, recording the emission
// sequence.
func runSerial(blk *query.Block, opts Options) (Stats, []emission, *memo.Memo, error) {
	mem := memo.New(blk.NumTables())
	card := cost.NewEstimator(blk, cost.Simple)
	var seq []emission
	st, err := New(blk, mem, card, opts).Run(Hooks{
		Join: func(outer, inner, result *memo.Entry) {
			seq = append(seq, emission{outer.Tables, inner.Tables, result.Tables})
		},
	})
	return st, seq, mem, err
}

// sameEmissions fails the test at the first position where got and want
// differ.
func sameEmissions(t *testing.T, label string, got, want []emission) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d joins, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emission %d diverges: got %v, oracle %v", label, i, got[i], want[i])
		}
	}
}

// forEachCombination runs check on all 1,080 graph × shape × Cartesian ×
// inner-limit combinations of the suite.
func forEachCombination(t *testing.T, check func(label string, blk *query.Block, opts Options)) {
	t.Helper()
	cases := 0
	for _, family := range []string{"chain", "star", "cycle", "clique", "sparse"} {
		for n := 2; n <= 9; n++ {
			rng := rand.New(rand.NewSource(int64(n)*1000 + int64(len(family))))
			g := genGraph(family, n, rng)
			blk := buildDiffBlock(t, g)
			for _, shape := range []Shape{Bushy, ZigZag, LeftDeep} {
				for _, pol := range []CartesianPolicy{CartesianCardOne, CartesianNever, CartesianAlways} {
					for _, lim := range []int{0, 1, 2} {
						cases++
						check(fmt.Sprintf("%s shape=%v pol=%v lim=%d", g.name, shape, pol, lim), blk,
							Options{Shape: shape, Cartesian: pol, CompositeInnerLimit: lim})
					}
				}
			}
		}
	}
	if cases != 1080 {
		t.Fatalf("compared %d graph/knob combinations, want 1080", cases)
	}
}

// TestDifferentialIndexedVsNaive compares the serial scan with the oracle
// ("naive" in the name is the oracle's cross product; the scan's only index
// is the cached neighbor mask).
func TestDifferentialIndexedVsNaive(t *testing.T) {
	forEachCombination(t, func(label string, blk *query.Block, opts Options) {
		stO, seqO, errO := runOracle(blk, opts)
		st, seq, mem, err := runSerial(blk, opts)

		// Error parity: both must agree on whether the graph is fully
		// joinable under these knobs.
		if (err == nil) != (errO == nil) {
			t.Fatalf("%s: error mismatch: scan=%v oracle=%v", label, err, errO)
		}
		if st.Joins != stO.Joins || st.Pairs != stO.Pairs || st.Entries != stO.Entries {
			t.Fatalf("%s: stats diverge: scan=%+v oracle=%+v", label, st, stO)
		}
		// The candidate counters partition the cross product exactly, and
		// only the class precheck ever skips.
		if stO.CandidatesVisited != st.CandidatesVisited+st.CandidatesSkipped {
			t.Fatalf("%s: candidate invariant broken: oracle visited %d, scan %d+%d",
				label, stO.CandidatesVisited, st.CandidatesVisited, st.CandidatesSkipped)
		}
		if opts.Shape == Bushy && opts.CompositeInnerLimit == 0 && st.CandidatesSkipped != 0 {
			t.Fatalf("%s: skipped %d slots with no size-dependent knob set", label, st.CandidatesSkipped)
		}
		sameEmissions(t, label, seq, seqO)
		// The cached per-entry neighbor masks must equal the from-scratch
		// computation.
		for k := 1; k <= blk.NumTables(); k++ {
			for _, e := range mem.OfSize(k) {
				if want := blk.Neighbors(e.Tables); e.Neighbors != want {
					t.Fatalf("%s: entry %v Neighbors = %v, want %v", label, e.Tables, e.Neighbors, want)
				}
			}
		}
	})
}
