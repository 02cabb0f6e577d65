package query

import (
	"reflect"
	"testing"
)

// arenaBlock builds a two-block query over builderCatalog in a: s joined to
// a derived table over r, with a filter and a clause on each side.
func arenaBlock(t *testing.T, a *Arena) *Block {
	t.Helper()
	cat := builderCatalog()
	child := a.NewBuilder(a.Name("v", "/sub"), cat)
	child.AddTable("r", "")
	child.FilterEq("r", "b")
	child.SelectCols(child.Col("r", "a"), child.Col("r", "b"))
	cb, err := child.Build()
	if err != nil {
		t.Fatal(err)
	}
	qb := a.NewBuilder(a.Name("v"), cat)
	qb.AddTable("s", "")
	d := qb.AddDerived(cb, "dv", false)
	qb.Join(qb.Col("s", "a"), qb.ColByTableIndex(d, 0), Eq)
	qb.OrderBy(qb.Col("s", "c"))
	blk, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestArenaResetZeroes serves a derived-table query from an arena, resets
// the arena and builds the query again in the storage the first one used:
// Finalize ORs bits into the adjacency and incidence arrays it takes, and a
// builder and a block read their err and finalized flags from it, so the
// rebuild must equal one from a fresh arena.
func TestArenaResetZeroes(t *testing.T) {
	want := arenaBlock(t, new(Arena))
	var a Arena
	for round := 0; round < 3; round++ {
		blk := arenaBlock(t, &a)
		if !reflect.DeepEqual(blk, want) {
			t.Fatalf("round %d: block differs from a fresh arena's:\n got  %+v\n want %+v", round, blk, want)
		}
		a.Reset()
	}
}
