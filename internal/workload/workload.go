// Package workload generates the query workloads of the paper's evaluation
// (Section 5): the synthetic linear and star workloads (batches of 6, 8 and
// 10 tables with 1-5 join predicates per edge), the random workload (a
// seeded generator over the real1 schema that merges simpler queries and
// prefers foreign-key joins), the two "real customer" workloads real1 and
// real2 (hand-built complex data-warehouse queries matching the paper's
// description), and the seven longest-compiling TPC-H queries.
package workload

import (
	"fmt"

	"cote/internal/catalog"
	"cote/internal/query"
)

// Query is one workload member.
type Query struct {
	Name  string
	Block *query.Block
	// SQL is the statement the block was parsed from; empty for the
	// generated workloads, which build their blocks directly.
	SQL string
}

// Workload is a named query collection over one catalog.
type Workload struct {
	Name    string
	Catalog *catalog.Catalog
	Queries []Query
}

// batches are the table counts of the synthetic batches, as in the paper.
var batches = []int{6, 8, 10}

// maxPreds is the per-edge join-predicate sweep width (1..5).
const maxPreds = 5

// Linear builds the linear synthetic workload: 15 queries in three batches
// of five; within a batch the chain length is fixed and the number of join
// predicates per edge sweeps 1..5 (so the join count is constant within a
// batch while the interesting orders — and hence generated plans — grow).
// The ORDER BY and GROUP BY column counts also vary across queries, as the
// paper's generator varies them — which is what keeps the per-method plan
// counts decorrelated enough for the Ct regression to be well conditioned.
// When nodes > 1 the tables are hash partitioned.
func Linear(nodes int) *Workload {
	cat := synthCatalog("linear", 10, nodes)
	w := &Workload{Name: suffixed("linear", nodes), Catalog: cat}
	for _, n := range batches {
		for preds := 1; preds <= maxPreds; preds++ {
			w.Queries = append(w.Queries, Query{
				Name:  fmt.Sprintf("linear_n%d_p%d", n, preds),
				Block: linearQuery(cat, n, preds),
			})
		}
	}
	return w
}

// Star builds the star synthetic workload with the same batch structure as
// Linear: the center is joined to n-1 satellites with 1..5 predicates per
// edge.
func Star(nodes int) *Workload {
	cat := synthCatalog("star", 10, nodes)
	w := &Workload{Name: suffixed("star", nodes), Catalog: cat}
	for _, n := range batches {
		for preds := 1; preds <= maxPreds; preds++ {
			w.Queries = append(w.Queries, Query{
				Name:  fmt.Sprintf("star_n%d_p%d", n, preds),
				Block: starQuery(cat, n, preds),
			})
		}
	}
	return w
}

func suffixed(name string, nodes int) string {
	if nodes > 1 {
		return name + "_p"
	}
	return name + "_s"
}

// synthCatalog builds the shared schema of the synthetic workloads: maxN
// tables t0..t{maxN-1}, each with enough join columns for any edge of
// either shape at up to maxPreds predicates, plus measure and dimension
// columns for ORDER BY / GROUP BY.
func synthCatalog(name string, maxN, nodes int) *catalog.Catalog {
	b := catalog.NewBuilder(name)
	for t := 0; t < maxN; t++ {
		rows := float64(10_000 * (1 + t%4))
		if t == 0 {
			rows = 1_000_000 // the chain head / star center is the fact table
		}
		tb := b.Table(tname(t), rows)
		// Join columns: jc{peer}_{k} links this table toward peer for
		// predicate k. Generously covering both shapes keeps one catalog.
		for peer := 0; peer < maxN; peer++ {
			if peer == t {
				continue
			}
			for k := 0; k < maxPreds; k++ {
				tb.Column(jcol(peer, k), 1_000)
			}
		}
		tb.Column("m1", 500).Column("m2", 500).Column("m3", 500)
		tb.Column("g1", 50).Column("g2", 40)
		tb.Index(fmt.Sprintf("ix_%s", tname(t)), false, jcol((t+1)%maxN, 0))
		if nodes > 1 {
			tb.Partition(nodes, jcol((t+1)%maxN, 0))
		}
	}
	return b.Build()
}

func tname(t int) string      { return fmt.Sprintf("t%d", t) }
func jcol(peer, k int) string { return fmt.Sprintf("jc%d_%d", peer, k) }

// linearQuery chains n tables with preds predicates per edge.
func linearQuery(cat *catalog.Catalog, n, preds int) *query.Block {
	qb := query.NewBuilder(fmt.Sprintf("linear_n%d_p%d", n, preds), cat)
	for t := 0; t < n; t++ {
		qb.AddTable(tname(t), "")
	}
	for t := 0; t+1 < n; t++ {
		for k := 0; k < preds; k++ {
			qb.JoinEq(tname(t), jcol(t+1, k), tname(t+1), jcol(t, k))
		}
	}
	addSortingClauses(qb, cat, tname(0), tname(n-1), preds)
	qb.SelectCols(qb.Col(tname(0), "m1"))
	return qb.MustBuild()
}

// addSortingClauses varies the ORDER BY and GROUP BY column counts with the
// query's position in the batch (the paper varies both across its synthetic
// workloads): ORDER BY takes (preds+1) mod 3 measure columns of obTable and
// GROUP BY takes preds mod 3 dimension columns of gbTable.
func addSortingClauses(qb *query.Builder, cat *catalog.Catalog, obTable, gbTable string, preds int) {
	obCols := []string{"m1", "m2", "m3"}[:(preds+1)%3]
	gbCols := []string{"g1", "g2"}[:min2(preds%3, 2)]
	var ob, gb []query.ColID
	for _, c := range obCols {
		ob = append(ob, qb.Col(obTable, c))
	}
	for _, c := range gbCols {
		gb = append(gb, qb.Col(gbTable, c))
	}
	qb.OrderBy(ob...)
	qb.GroupBy(gb...)
	if len(gb) > 0 {
		qb.Aggregates(1)
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Clique builds the clique synthetic workload: every pair of tables is
// joined (the densest join graph, the worst case for DPsize enumeration and
// the counter's heaviest per-join work). Batches
// follow Linear/Star; the per-edge predicate count sweeps 1..2 only — with
// O(n^2) edges the interesting-order growth of wider sweeps would dwarf the
// batch structure.
func Clique(nodes int) *Workload {
	cat := synthCatalog("clique", 10, nodes)
	w := &Workload{Name: suffixed("clique", nodes), Catalog: cat}
	for _, n := range batches {
		for preds := 1; preds <= 2; preds++ {
			w.Queries = append(w.Queries, Query{
				Name:  fmt.Sprintf("clique_n%d_p%d", n, preds),
				Block: cliqueQuery(cat, n, preds),
			})
		}
	}
	return w
}

// cliqueQuery joins all pairs of n tables with preds predicates per edge.
func cliqueQuery(cat *catalog.Catalog, n, preds int) *query.Block {
	qb := query.NewBuilder(fmt.Sprintf("clique_n%d_p%d", n, preds), cat)
	for t := 0; t < n; t++ {
		qb.AddTable(tname(t), "")
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for k := 0; k < preds; k++ {
				qb.JoinEq(tname(a), jcol(b, k), tname(b), jcol(a, k))
			}
		}
	}
	addSortingClauses(qb, cat, tname(0), tname(1), preds)
	qb.SelectCols(qb.Col(tname(0), "m1"))
	return qb.MustBuild()
}

// starQuery joins t0 (the center) with n-1 satellites, preds predicates per
// edge.
func starQuery(cat *catalog.Catalog, n, preds int) *query.Block {
	qb := query.NewBuilder(fmt.Sprintf("star_n%d_p%d", n, preds), cat)
	for t := 0; t < n; t++ {
		qb.AddTable(tname(t), "")
	}
	for s := 1; s < n; s++ {
		for k := 0; k < preds; k++ {
			qb.JoinEq(tname(0), jcol(s, k), tname(s), jcol(0, k))
		}
	}
	addSortingClauses(qb, cat, tname(0), tname(1), preds)
	qb.SelectCols(qb.Col(tname(0), "m1"))
	return qb.MustBuild()
}
