package query

import (
	"strconv"
	"testing"

	"cote/internal/catalog"
	"cote/internal/testutil"
)

func builderCatalog() *catalog.Catalog {
	b := catalog.NewBuilder("bt")
	b.Table("r", 1000).Column("a", 100).Column("b", 50)
	b.Table("s", 500).Column("a", 100).Column("c", 25)
	return b.Build()
}

func TestBuilderHelperAccessors(t *testing.T) {
	qb := NewBuilder("h", builderCatalog())
	qb.AddTable("r", "")
	qb.AddTable("s", "alias_s")

	if got := qb.Aliases(); len(got) != 2 || got[0] != "r" || got[1] != "alias_s" {
		t.Fatalf("Aliases = %v", got)
	}
	if !qb.HasColumn("r", "a") || qb.HasColumn("r", "c") || qb.HasColumn("zzz", "a") {
		t.Fatal("HasColumn wrong")
	}
	if !qb.HasAlias("alias_s") || qb.HasAlias("s") {
		t.Fatal("HasAlias wrong")
	}
	// r.a is column 0 and s.a column 2; c is only on s; nothing past s.
	if got := [...]ColID{qb.FindCol("a", 0), qb.FindCol("a", 1), qb.FindCol("a", 2), qb.FindCol("c", -1), qb.FindCol("zzz", 0)}; got != [...]ColID{0, 2, NoCol, 3, NoCol} {
		t.Fatalf("FindCol = %v", got)
	}
	id := qb.ColByTableIndex(1, 1)
	if id == NoCol {
		t.Fatal("ColByTableIndex failed")
	}
	if qb.TableIndexOf(id) != 1 {
		t.Fatalf("TableIndexOf = %d", qb.TableIndexOf(id))
	}
	if qb.TableIndexOf(NoCol) != -1 || qb.TableIndexOf(ColID(999)) != -1 {
		t.Fatal("TableIndexOf out-of-range handling wrong")
	}
	if qb.Err() != nil {
		t.Fatalf("unexpected error: %v", qb.Err())
	}
}

func TestBuilderClauseMethods(t *testing.T) {
	qb := NewBuilder("c", builderCatalog())
	qb.AddTable("r", "")
	qb.AddTable("s", "")
	qb.JoinEq("r", "a", "s", "a")
	qb.FilterEq("r", "b")
	qb.ExpensiveFilter(qb.Col("s", "c"), 0.1)
	qb.GroupBy(qb.Col("r", "b"))
	qb.OrderBy(qb.Col("s", "c"))
	qb.Aggregates(2)
	qb.FetchFirst(7)
	blk := qb.MustBuild()

	// Transitive closure may add implied locals; count explicit ones.
	explicit := 0
	expensive := 0
	for _, lp := range blk.LocalPreds {
		if !lp.Implied {
			explicit++
		}
		if lp.Expensive {
			expensive++
		}
	}
	if explicit != 2 || expensive != 1 {
		t.Fatalf("locals = %d explicit, %d expensive", explicit, expensive)
	}
	if len(blk.GroupBy) != 1 || len(blk.OrderBy) != 1 || blk.NumAggs != 2 || blk.FirstN != 7 {
		t.Fatalf("clauses wrong: %+v", blk)
	}
}

func TestBuilderClauseErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		run  func(qb *Builder)
	}{
		{"groupby unresolved", func(qb *Builder) { qb.GroupBy(NoCol) }},
		{"orderby unresolved", func(qb *Builder) { qb.OrderBy(NoCol) }},
		{"select unresolved", func(qb *Builder) { qb.SelectCols(NoCol) }},
		{"expensive unresolved", func(qb *Builder) { qb.ExpensiveFilter(NoCol, 0.5) }},
		{"negative aggregates", func(qb *Builder) { qb.Aggregates(-1) }},
		{"negative fetch first", func(qb *Builder) { qb.FetchFirst(-1) }},
		{"bad table index", func(qb *Builder) { qb.ColByTableIndex(7, 0) }},
		{"bad ordinal", func(qb *Builder) { qb.ColByTableIndex(0, 99) }},
		{"derived no alias", func(qb *Builder) {
			child := NewBuilder("ch", builderCatalog())
			child.AddTable("s", "")
			qb.AddDerived(child.MustBuild(), "", false)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qb := NewBuilder("e", builderCatalog())
			qb.AddTable("r", "")
			tc.run(qb)
			if _, err := qb.Build(); err == nil {
				t.Fatalf("%s: Build succeeded", tc.name)
			}
			// After an error, further calls are no-ops and Err is sticky.
			if qb.Err() == nil {
				t.Fatal("Err not sticky")
			}
			if qb.AddTable("s", "") != -1 {
				t.Fatal("AddTable after error did not no-op")
			}
		})
	}
}

func TestBuilderAfterErrorAccessorsSafe(t *testing.T) {
	qb := NewBuilder("x", builderCatalog())
	qb.AddTable("r", "")
	qb.GroupBy(NoCol) // poison
	if qb.Col("r", "a") != NoCol {
		t.Fatal("Col after error did not return NoCol")
	}
	if qb.ColByTableIndex(0, 0) != NoCol {
		t.Fatal("ColByTableIndex after error did not return NoCol")
	}
	if qb.Filter(ColID(0), Eq, 0.5).Err() == nil {
		t.Fatal("error lost")
	}
}

func TestPredOpStrings(t *testing.T) {
	want := map[PredOp]string{Eq: "=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Ne: "<>"}
	for op, w := range want {
		if op.String() != w {
			t.Fatalf("%d.String() = %q, want %q", op, op.String(), w)
		}
	}
	if PredOp(99).String() == "" {
		t.Fatal("unknown op has empty name")
	}
}

// TestBuilderAllocs pins what building and finalizing a block allocates: a
// 10-table chain over 13-column tables — 130 column instances, 9 join
// predicates. In a warm arena it is nothing. NewBuilder's fresh arena costs
// 18 with go1.24.0 (19 with builder-owned slabs, 302 with one object per
// column instance and the closure's maps). The ceilings are the measured
// counts, with the GC held off for the measured calls.
func TestBuilderAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race changes allocation counts")
	}
	cat := testutil.BenchCatalog()
	var table, col [10]string
	for i := range table {
		table[i], col[i] = "a_"+strconv.Itoa(i), "j_"+strconv.Itoa(i)
	}
	build := func(qb *Builder) {
		for _, name := range table {
			qb.AddTable(name, "")
		}
		for i := 0; i+1 < len(table); i++ {
			qb.JoinEq(table[i], col[i+1], table[i+1], col[i])
		}
		qb.FilterEq(table[0], "f")
		if _, err := qb.Build(); err != nil {
			t.Fatal(err)
		}
	}
	heap, _ := testutil.AllocsWithoutGC(20, func() { build(NewBuilder("chain10", cat)) })
	var a Arena
	arena, _ := testutil.AllocsWithoutGC(20, func() {
		a.Reset()
		build(a.NewBuilder("chain10", cat))
	})
	if heap > 18 || arena > 0 {
		t.Errorf("Build(chain-10) = %.2f allocs, want <= 18; in a warm arena %.2f, want 0", heap, arena)
	}
}

// TestBuilderSlabsKeepReferences adds more tables than one slab chunk holds:
// the references handed out before a new chunk starts must stay valid, and
// every column must still know its id and its table.
func TestBuilderSlabsKeepReferences(t *testing.T) {
	cat := testutil.BenchCatalog()
	qb := NewBuilder("wide", cat)
	const n = 30
	for i := 0; i < n; i++ {
		qb.AddTable("a_"+strconv.Itoa(i%testutil.BenchTables), "t"+strconv.Itoa(i))
	}
	blk := qb.MustBuild()
	if len(blk.Tables) != n || len(blk.Columns) != 13*n {
		t.Fatalf("%d tables, %d columns", len(blk.Tables), len(blk.Columns))
	}
	for i, ref := range blk.Tables {
		want := cat.MustTable("a_" + strconv.Itoa(i%testutil.BenchTables))
		if ref.Index != i || ref.Alias != "t"+strconv.Itoa(i) || ref.Table != want || ref.FirstCol != ColID(13*i) || ref.NumCols != 13 {
			t.Fatalf("table %d: %+v", i, ref)
		}
	}
	for id, c := range blk.Columns {
		if c.ID != ColID(id) || c.Ref != blk.Tables[id/13] || c.Col != c.Ref.Table.Columns[id%13] {
			t.Fatalf("column %d: %+v", id, c)
		}
	}
}
