package query

import (
	"fmt"

	"cote/internal/catalog"
)

// Builder assembles a query Block programmatically. It is the construction
// path used by the workload generators; the SQL parser produces Blocks
// through the same builder so both paths share validation.
//
// Builder methods return errors for conditions that depend on input (unknown
// tables/columns, duplicate aliases); the terminal Build call finalizes the
// block.
type Builder struct {
	a   *Arena
	b   *Block
	err error
}

// NewBuilder starts a block named name over the given catalog, in a fresh
// arena the block keeps.
func NewBuilder(name string, cat *catalog.Catalog) *Builder {
	return new(Arena).NewBuilder(name, cat)
}

// NewBuilder starts a block named name over the given catalog, carved from
// the arena: the block, and everything Build and Finalize give it, is valid
// until the arena's next Reset.
func (a *Arena) NewBuilder(name string, cat *catalog.Catalog) *Builder {
	qb := &a.builders.take(1)[0]
	qb.a = a
	qb.b = &a.blocks.take(1)[0]
	qb.b.Name, qb.b.Catalog = name, cat
	return qb
}

// Err returns the first error encountered, if any. All mutating methods are
// no-ops after an error, so a chain can be checked once at the end.
func (qb *Builder) Err() error { return qb.err }

func (qb *Builder) fail(format string, args ...any) *Builder {
	if qb.err == nil {
		qb.err = fmt.Errorf("query %q: %s", qb.b.Name, fmt.Sprintf(format, args...))
	}
	return qb
}

// AddTable adds a base table reference under the given alias (the table name
// itself if alias is empty) and returns its table index.
func (qb *Builder) AddTable(table, alias string) int {
	if qb.err != nil {
		return -1
	}
	t, err := qb.b.Catalog.Table(table)
	if err != nil {
		qb.fail("%v", err)
		return -1
	}
	if alias == "" {
		alias = table
	}
	return qb.addRef(TableRef{Table: t, Alias: alias}, t.Columns)
}

// AddDerived adds a derived table (view or subquery) whose rows come from
// the child block. The derived table exposes the child's select list; column
// NDVs are inherited from the underlying columns. correlated marks a
// correlated subquery, which is ineligible to be a join outer.
func (qb *Builder) AddDerived(child *Block, alias string, correlated bool) int {
	if qb.err != nil {
		return -1
	}
	if alias == "" {
		qb.fail("derived table needs an alias")
		return -1
	}
	if len(child.Select) == 0 {
		qb.fail("derived table %q: child block has an empty select list", alias)
		return -1
	}
	synth := qb.a.synth.take(len(child.Select))
	cols := qb.a.synPtrs.take(len(child.Select))
	for i, id := range child.Select {
		src := child.Column(id)
		synth[i] = catalog.Column{Name: src.Col.Name, NDV: src.Col.NDV, Ordinal: i}
		cols[i] = &synth[i]
	}
	return qb.addRef(TableRef{Derived: child, Alias: alias, Correlated: correlated}, cols)
}

// addRef appends a table reference exposing cols and returns its index.
func (qb *Builder) addRef(r TableRef, cols []*catalog.Column) int {
	if qb.HasAlias(r.Alias) {
		qb.fail("duplicate alias %q", r.Alias)
		return -1
	}
	ref := &qb.a.refs.take(1)[0]
	*ref = r
	ref.Index = len(qb.b.Tables)
	ref.FirstCol = ColID(len(qb.b.Columns))
	ref.NumCols = len(cols)
	slab := qb.a.cols.take(len(cols))
	qb.b.Tables = append(qb.a.refPtrs.grow(qb.b.Tables, 1), ref)
	qb.b.Columns = qb.a.colPtrs.grow(qb.b.Columns, len(cols))
	for i, c := range cols {
		slab[i] = ColumnRef{ID: ref.FirstCol + ColID(i), Ref: ref, Col: c}
		qb.b.Columns = append(qb.b.Columns, &slab[i])
	}
	return ref.Index
}

// Col resolves "alias.column" to a ColID.
func (qb *Builder) Col(alias, column string) ColID {
	if qb.err != nil {
		return NoCol
	}
	for _, t := range qb.b.Tables {
		if t.Alias != alias {
			continue
		}
		for i := 0; i < t.NumCols; i++ {
			id := t.FirstCol + ColID(i)
			if qb.b.Columns[id].Col.Name == column {
				return id
			}
		}
		qb.fail("table %q has no column %q", alias, column)
		return NoCol
	}
	qb.fail("unknown alias %q", alias)
	return NoCol
}

// ColByTableIndex resolves a column by table index and column ordinal.
func (qb *Builder) ColByTableIndex(table, ordinal int) ColID {
	if qb.err != nil {
		return NoCol
	}
	if table < 0 || table >= len(qb.b.Tables) {
		qb.fail("table index %d out of range", table)
		return NoCol
	}
	ref := qb.b.Tables[table]
	if ordinal < 0 || ordinal >= ref.NumCols {
		qb.fail("column ordinal %d out of range for %q", ordinal, ref.Alias)
		return NoCol
	}
	return ref.FirstCol + ColID(ordinal)
}

// Aliases returns the aliases of all table references added so far.
func (qb *Builder) Aliases() []string {
	out := make([]string, len(qb.b.Tables))
	for i, t := range qb.b.Tables {
		out[i] = t.Alias
	}
	return out
}

// HasAlias reports whether a table reference added so far goes by alias.
// Unlike Aliases it copies nothing.
func (qb *Builder) HasAlias(alias string) bool {
	for _, t := range qb.b.Tables {
		if t.Alias == alias {
			return true
		}
	}
	return false
}

// FindCol returns the first column named column among the table references
// with index from and above, or NoCol when none exposes it. It records no
// error: the SQL parser resolves an unqualified column with one call and
// proves it unambiguous with a second.
func (qb *Builder) FindCol(column string, from int) ColID {
	for _, t := range qb.b.Tables[min(max(from, 0), len(qb.b.Tables)):] {
		for id := t.FirstCol; id < t.FirstCol+ColID(t.NumCols); id++ {
			if qb.b.Columns[id].Col.Name == column {
				return id
			}
		}
	}
	return NoCol
}

// HasColumn reports whether the aliased table exposes the column.
func (qb *Builder) HasColumn(alias, column string) bool {
	for _, t := range qb.b.Tables {
		if t.Alias != alias {
			continue
		}
		for i := 0; i < t.NumCols; i++ {
			if qb.b.Columns[t.FirstCol+ColID(i)].Col.Name == column {
				return true
			}
		}
	}
	return false
}

// TableIndexOf returns the table index owning the column, or -1 for an
// unresolved column.
func (qb *Builder) TableIndexOf(id ColID) int {
	if id == NoCol || int(id) >= len(qb.b.Columns) {
		return -1
	}
	return qb.b.Columns[id].Ref.Index
}

// Join adds a join predicate between two columns.
func (qb *Builder) Join(left, right ColID, op PredOp) *Builder {
	if qb.err != nil {
		return qb
	}
	if left == NoCol || right == NoCol {
		return qb.fail("join predicate with unresolved column")
	}
	if qb.TableIndexOf(left) == qb.TableIndexOf(right) {
		return qb.fail("join predicate within one table (%s %s %s)",
			qb.b.Column(left), op, qb.b.Column(right))
	}
	qb.b.JoinPreds = append(qb.a.joins.grow(qb.b.JoinPreds, 1), JoinPred{Left: left, Right: right, Op: op})
	return qb
}

// JoinEq adds an equality join predicate between "la.lc" and "ra.rc".
func (qb *Builder) JoinEq(la, lc, ra, rc string) *Builder {
	return qb.Join(qb.Col(la, lc), qb.Col(ra, rc), Eq)
}

// Filter adds a local predicate on a column with an explicit selectivity
// (pass 0 to default it at Finalize time).
func (qb *Builder) Filter(col ColID, op PredOp, selectivity float64) *Builder {
	if qb.err != nil {
		return qb
	}
	if col == NoCol {
		return qb.fail("local predicate with unresolved column")
	}
	if selectivity < 0 || selectivity > 1 {
		return qb.fail("selectivity %v out of [0,1]", selectivity)
	}
	qb.b.LocalPreds = append(qb.a.locals.grow(qb.b.LocalPreds, 1), LocalPred{Col: col, Op: op, Selectivity: selectivity})
	return qb
}

// FilterEq adds an equality local predicate on "alias.column" with default
// (1/NDV) selectivity.
func (qb *Builder) FilterEq(alias, column string) *Builder {
	return qb.Filter(qb.Col(alias, column), Eq, 0)
}

// ExpensiveFilter adds a user-defined expensive predicate on a column; such
// predicates are physical properties per Table 1 of the paper.
func (qb *Builder) ExpensiveFilter(col ColID, selectivity float64) *Builder {
	if qb.err != nil {
		return qb
	}
	if col == NoCol {
		return qb.fail("expensive predicate with unresolved column")
	}
	qb.b.LocalPreds = append(qb.a.locals.grow(qb.b.LocalPreds, 1), LocalPred{Col: col, Op: Eq, Selectivity: selectivity, Expensive: true})
	return qb
}

// LeftOuter records that the table at index null is null-producing in a left
// outer join whose ON predicate references the preserving tables predReq.
// The corresponding join predicate must be added separately with Join.
func (qb *Builder) LeftOuter(null int, predReq ...int) *Builder {
	if qb.err != nil {
		return qb
	}
	if null < 0 || null >= len(qb.b.Tables) {
		return qb.fail("outer join table index %d out of range", null)
	}
	oj := OuterJoin{NullProducing: null}
	for _, p := range predReq {
		if p < 0 || p >= len(qb.b.Tables) {
			return qb.fail("outer join preserving table index %d out of range", p)
		}
		oj.PredReq = oj.PredReq.Add(p)
	}
	qb.b.OuterJoins = append(qb.a.outers.grow(qb.b.OuterJoins, 1), oj)
	return qb
}

// GroupBy sets the grouping columns.
func (qb *Builder) GroupBy(cols ...ColID) *Builder {
	if qb.err != nil {
		return qb
	}
	for _, c := range cols {
		if c == NoCol {
			return qb.fail("group by with unresolved column")
		}
	}
	qb.b.GroupBy = append(qb.a.colIDs.grow(qb.b.GroupBy, len(cols)), cols...)
	return qb
}

// OrderBy sets the ordering columns.
func (qb *Builder) OrderBy(cols ...ColID) *Builder {
	if qb.err != nil {
		return qb
	}
	for _, c := range cols {
		if c == NoCol {
			return qb.fail("order by with unresolved column")
		}
	}
	qb.b.OrderBy = append(qb.a.colIDs.grow(qb.b.OrderBy, len(cols)), cols...)
	return qb
}

// SelectCols sets the select list. If never called, Build defaults it to the
// first column of the first table.
func (qb *Builder) SelectCols(cols ...ColID) *Builder {
	if qb.err != nil {
		return qb
	}
	for _, c := range cols {
		if c == NoCol {
			return qb.fail("select with unresolved column")
		}
	}
	qb.b.Select = append(qb.a.colIDs.grow(qb.b.Select, len(cols)), cols...)
	return qb
}

// FetchFirst asks for only the first n rows.
func (qb *Builder) FetchFirst(n int) *Builder {
	if qb.err != nil {
		return qb
	}
	if n < 0 {
		return qb.fail("negative FETCH FIRST row count")
	}
	qb.b.FirstN = n
	return qb
}

// Aggregates declares n aggregate functions in the select list.
func (qb *Builder) Aggregates(n int) *Builder {
	if qb.err != nil {
		return qb
	}
	if n < 0 {
		return qb.fail("negative aggregate count")
	}
	qb.b.NumAggs = n
	return qb
}

// Build finalizes and returns the block.
func (qb *Builder) Build() (*Block, error) {
	if qb.err != nil {
		return nil, qb.err
	}
	if len(qb.b.Select) == 0 && len(qb.b.Tables) > 0 {
		qb.b.Select = append(qb.a.colIDs.take(1)[:0], qb.b.Tables[0].FirstCol)
	}
	if err := qb.b.finalize(qb.a); err != nil {
		return nil, err
	}
	return qb.b, nil
}

// MustBuild is Build for statically known-good queries (tests, canned
// workloads); it panics on error.
func (qb *Builder) MustBuild() *Block {
	b, err := qb.Build()
	if err != nil {
		panic(err)
	}
	return b
}
