package testutil

import (
	"math/rand"
	"strconv"
	"strings"

	"cote/internal/catalog"
)

// BenchTables is the size of BenchCatalog.
const BenchTables = 12

// BenchCatalog has the shape of the repository benchmark's catalog
// (bench/gen.go): tables a_0 … a_11 of 13 columns each — id, f and one join
// column j_b per possible partner a_b, so no column serves two edges and the
// transitive closure adds nothing — with a unique index on id and one on a
// join column. The in-package parse and fingerprint benchmarks and the
// golden-fingerprint corpus run over it, so their figures are the ones a
// benchmark request pays.
func BenchCatalog() *catalog.Catalog {
	cb := catalog.NewBuilder("bench12")
	for i := 0; i < BenchTables; i++ {
		name := "a_" + strconv.Itoa(i)
		rows := float64(20000 + 7000*i)
		cb.Table(name, rows).Column("id", rows).Column("f", 20)
		for b := 0; b < BenchTables; b++ {
			if b != i {
				cb.Column("j_"+strconv.Itoa(b), float64(200+10*b))
			}
		}
		cb.Index(name+"_pk", true, "id")
		cb.Index(name+"_ix", false, "j_"+strconv.Itoa((i+1)%BenchTables))
	}
	return cb.Build()
}

// BenchSQL writes one spelling of a "chain", "star" or "clique" join over
// the catalog tables numbered in tables (path order for a chain, hub first
// for a star), the way the benchmark's generator spells its requests: fresh
// three-byte aliases, FROM list and predicates shuffled, equality sides
// swapped at random, fresh literals. The local predicates f = <literal> sit
// on every fourth table by position rather than being drawn, so every
// spelling of one (kind, tables) pair has the same fingerprint.
func BenchSQL(rng *rand.Rand, kind string, tables []int) string {
	n := len(tables)
	alias := make([]string, BenchTables)
	names := rng.Perm(26 * 26)
	for i, t := range tables {
		alias[t] = string([]byte{'a' + byte(names[i]/26), 'a' + byte(names[i]%26)}) + strconv.Itoa(rng.Intn(10))
	}
	from := make([]string, 0, n)
	for _, i := range rng.Perm(n) {
		from = append(from, "a_"+strconv.Itoa(tables[i])+" "+alias[tables[i]])
	}
	var preds []string
	edge := func(a, b int) {
		l := alias[a] + ".j_" + strconv.Itoa(b)
		r := alias[b] + ".j_" + strconv.Itoa(a)
		if rng.Intn(2) == 0 {
			l, r = r, l
		}
		preds = append(preds, l+" = "+r)
	}
	for i := 1; i < n; i++ {
		switch kind {
		case "chain":
			edge(tables[i-1], tables[i])
		case "star":
			edge(tables[0], tables[i])
		case "clique":
			for j := 0; j < i; j++ {
				edge(tables[j], tables[i])
			}
		default:
			panic("testutil: unknown join shape " + kind)
		}
	}
	for i := 0; i < n; i += 4 {
		preds = append(preds, alias[tables[i]]+".f = "+strconv.Itoa(rng.Intn(1000)))
	}
	rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	return "SELECT " + alias[tables[0]] + ".id FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(preds, " AND ")
}
