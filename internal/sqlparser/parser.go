package sqlparser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
)

// Parse compiles one SQL statement against the catalog into a query Block.
// Identifiers are case-insensitive and folded to lower case.
func Parse(sql string, cat *catalog.Catalog) (*query.Block, error) {
	return ParseIn(new(query.Arena), sql, cat)
}

// ParseIn is Parse with the block and its nested blocks carved from a: they
// are valid until a's next Reset. The parse's own working state is on its
// stack.
func ParseIn(a *query.Arena, sql string, cat *catalog.Catalog) (*query.Block, error) {
	if len(sql) > math.MaxInt32 {
		return nil, lex(sql)
	}
	p := parser{src: sql, cat: cat, a: a, name: firstWords(a, sql)}
	p.tok, _ = scan(sql, 0)
	blk, _, err := p.parseQuery()
	if err == nil && p.tok.kind != tokEOF {
		err = p.errf("trailing input %q", p.text(p.tok))
	}
	if err != nil {
		// A lexical error anywhere in the statement outranks the
		// grammatical one.
		if lerr := lex(sql); lerr != nil {
			return nil, lerr
		}
		return nil, err
	}
	return blk, nil
}

// MustParse is Parse for statically known-good SQL; it panics on error.
func MustParse(sql string, cat *catalog.Catalog) *query.Block {
	blk, err := Parse(sql, cat)
	if err != nil {
		panic(err)
	}
	return blk
}

// firstWords names a block after its statement, in a's storage: the words
// separated by single spaces, cut to 40 bytes and marked "..." when there
// are more.
func firstWords(a *query.Arena, sql string) string {
	const keep = 40
	// Words and the single spaces between them, as pieces of sql; each piece
	// is at least a byte, so keep+1 bytes take at most keep+1 pieces.
	var parts [keep + 2]string
	k, n := 0, 0
	for i := 0; i < len(sql) && n <= keep; {
		if class[sql[i]]&clsSpace != 0 {
			i++
			continue
		}
		if n > 0 {
			parts[k] = " "
			k++
			n++
		}
		j := i
		for j < len(sql) && class[sql[j]]&clsSpace == 0 && n+j-i <= keep {
			j++
		}
		if j > i {
			parts[k] = sql[i:j]
			k++
		}
		n += j - i
		i = j
	}
	if n > keep {
		// The last piece holds the byte past keep.
		last := &parts[k-1]
		*last = (*last)[:len(*last)-1]
		parts[k] = "..."
		k++
	}
	return a.Name(parts[:k]...)
}

// correlation records a child-block column (by select-list ordinal) that
// must be equi-joined to a parent column once the derived table exists.
type correlation struct {
	childOrdinal int
	parentAlias  string
	parentCol    string
}

// rawCol is an unresolved column reference.
type rawCol struct {
	alias, col string
}

// rawSelect is one unresolved select-list item.
type rawSelect struct {
	col   rawCol
	isAgg bool
	star  bool // COUNT(*)
}

// parser holds the state for one (sub)query parse.
type parser struct {
	src  string
	tok  token // the current token
	cat  *catalog.Catalog
	a    *query.Arena
	name string
	// outer builds the enclosing query, for correlation resolution. It is
	// the builder rather than the parser so that no parser's address is
	// stored: the parsers of a statement stay on the stack.
	outer *query.Builder

	qb     *query.Builder
	subSeq int
	// corrs and corrCols accumulate, in lockstep, the correlations found
	// while parsing a child block and the child columns to expose for them.
	corrs    []correlation
	corrCols []query.ColID
}

// --- token helpers ---

func (p *parser) cur() token { return p.tok }

// text returns the token's spelling: for a string literal its content, the
// statement bytes it covers otherwise.
func (p *parser) text(t token) string {
	if t.kind == tokString {
		return p.src[t.pos+1 : t.end-1]
	}
	return p.src[t.pos:t.end]
}

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(p.text(t), kw)
}

func (p *parser) atSymbol(sym string) bool {
	t := p.cur()
	return t.kind == tokSymbol && p.text(t) == sym
}

// take returns the current token and scans the next. EOF and an invalid
// token are never passed: every parse that meets one fails, and lex then
// reports the lexical error, if any.
func (p *parser) take() token {
	t := p.tok
	if t.kind != tokEOF && t.kind != tokInvalid {
		p.tok, _ = scan(p.src, int(t.end))
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errf("expected %s, found %q", strings.ToUpper(kw), p.text(p.cur()))
	}
	p.take()
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	if !p.atSymbol(sym) {
		return p.errf("expected %q, found %q", sym, p.text(p.cur()))
	}
	p.take()
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "order": true,
	"by": true, "and": true, "join": true, "left": true, "outer": true,
	"on": true, "as": true, "in": true, "count": true, "sum": true,
	"avg": true, "min": true, "max": true,
	"fetch": true, "first": true, "rows": true, "only": true,
}

// isKeyword reports whether the identifier is a reserved word, in any case.
func isKeyword(ident string) bool {
	var buf [6]byte // the longest keyword
	if len(ident) > len(buf) {
		return false
	}
	for i := 0; i < len(ident); i++ {
		buf[i] = ident[i] | 0x20
	}
	return keywords[string(buf[:len(ident)])]
}

// --- grammar ---

// parseQuery parses SELECT ... [FROM ... WHERE ... GROUP BY ... ORDER BY
// ...] and returns the built block plus any correlations found against the
// parent scope.
func (p *parser) parseQuery() (*query.Block, []correlation, error) {
	p.qb = p.a.NewBuilder(p.name, p.cat)

	if err := p.expectKeyword("select"); err != nil {
		return nil, nil, err
	}
	var selBuf [16]rawSelect
	var colBuf [bitset.MaxElems]query.ColID
	selects, err := p.parseSelectList(selBuf[:0])
	if err != nil {
		return nil, nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, nil, err
	}
	if err := p.parseFrom(); err != nil {
		return nil, nil, err
	}
	if p.atKeyword("where") {
		p.take()
		if err := p.parseConds(false, nil); err != nil {
			return nil, nil, err
		}
	}
	if p.atKeyword("group") {
		p.take()
		if err := p.expectKeyword("by"); err != nil {
			return nil, nil, err
		}
		cols, err := p.parseColList(colBuf[:0])
		if err != nil {
			return nil, nil, err
		}
		p.qb.GroupBy(cols...)
	}
	if p.atKeyword("order") {
		p.take()
		if err := p.expectKeyword("by"); err != nil {
			return nil, nil, err
		}
		cols, err := p.parseColList(colBuf[:0])
		if err != nil {
			return nil, nil, err
		}
		p.qb.OrderBy(cols...)
	}
	if p.atKeyword("fetch") {
		p.take()
		if err := p.expectKeyword("first"); err != nil {
			return nil, nil, err
		}
		t := p.take()
		if t.kind != tokNumber {
			return nil, nil, p.errf("expected row count after FETCH FIRST, found %q", p.text(t))
		}
		var n int64
		for _, ch := range p.text(t) {
			if ch < '0' || ch > '9' {
				return nil, nil, p.errf("non-integer FETCH FIRST count %q", p.text(t))
			}
			if n = n*10 + int64(ch-'0'); n > math.MaxInt32 {
				return nil, nil, p.errf("FETCH FIRST count %s exceeds %d", p.text(t), math.MaxInt32)
			}
		}
		if err := p.expectKeyword("rows"); err != nil {
			return nil, nil, err
		}
		if err := p.expectKeyword("only"); err != nil {
			return nil, nil, err
		}
		p.qb.FetchFirst(int(n))
	}

	// Resolve the select list now that all tables are in scope.
	nAggs := 0
	selCols := colBuf[:0]
	for _, s := range selects {
		if s.isAgg {
			nAggs++
		}
		if s.star {
			continue
		}
		id, _, err := p.resolveCol(s.col)
		if err != nil {
			return nil, nil, err
		}
		selCols = append(selCols, id)
	}
	// Expose correlated columns through the select list so the parent can
	// join on them.
	for ci := range p.corrs {
		p.corrs[ci].childOrdinal = len(selCols) + ci
	}
	selCols = append(selCols, p.corrCols...)
	if len(selCols) > 0 {
		p.qb.SelectCols(selCols...)
	}
	p.qb.Aggregates(nAggs)

	blk, err := p.qb.Build()
	if err != nil {
		return nil, nil, err
	}
	return blk, p.corrs, nil
}

// parseSelectList appends the select list to out.
func (p *parser) parseSelectList(out []rawSelect) ([]rawSelect, error) {
	for {
		s, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.atSymbol(",") {
			return out, nil
		}
		p.take()
	}
}

func (p *parser) parseSelectItem() (rawSelect, error) {
	count := p.atKeyword("count")
	if count || p.atKeyword("sum") || p.atKeyword("avg") || p.atKeyword("min") || p.atKeyword("max") {
		p.take()
		if err := p.expectSymbol("("); err != nil {
			return rawSelect{}, err
		}
		if count && p.atSymbol("*") {
			p.take()
			if err := p.expectSymbol(")"); err != nil {
				return rawSelect{}, err
			}
			return rawSelect{isAgg: true, star: true}, nil
		}
		col, err := p.parseRawCol()
		if err != nil {
			return rawSelect{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return rawSelect{}, err
		}
		return rawSelect{col: col, isAgg: true}, nil
	}
	col, err := p.parseRawCol()
	if err != nil {
		return rawSelect{}, err
	}
	return rawSelect{col: col}, nil
}

// parseFrom parses the FROM clause: comma-separated items with optional
// [LEFT [OUTER]] JOIN ... ON ... chains.
func (p *parser) parseFrom() error {
	if _, err := p.parseFromItem(); err != nil {
		return err
	}
	for {
		switch {
		case p.atSymbol(","):
			p.take()
			if _, err := p.parseFromItem(); err != nil {
				return err
			}
		case p.atKeyword("join"):
			p.take()
			if err := p.parseJoinTail(false); err != nil {
				return err
			}
		case p.atKeyword("left"):
			p.take()
			if p.atKeyword("outer") {
				p.take()
			}
			if err := p.expectKeyword("join"); err != nil {
				return err
			}
			if err := p.parseJoinTail(true); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// parseJoinTail parses "<item> ON conds" after a JOIN keyword.
func (p *parser) parseJoinTail(leftOuter bool) error {
	idx, err := p.parseFromItem()
	if err != nil {
		return err
	}
	if err := p.expectKeyword("on"); err != nil {
		return err
	}
	var onTables []int
	if err := p.parseConds(true, &onTables); err != nil {
		return err
	}
	if leftOuter {
		var req []int
		for _, t := range onTables {
			if t != idx {
				req = append(req, t)
			}
		}
		p.qb.LeftOuter(idx, req...)
	}
	return p.qb.Err()
}

// parseFromItem parses a base table or parenthesized subquery with its
// alias and returns the table index.
func (p *parser) parseFromItem() (int, error) {
	if p.atSymbol("(") {
		p.take()
		sub := parser{src: p.src, tok: p.tok, cat: p.cat, a: p.a, name: p.a.Name(p.name, "/sub"), outer: p.qb}
		child, corrs, err := sub.parseQuery()
		if err != nil {
			return -1, err
		}
		p.tok = sub.tok
		if err := p.expectSymbol(")"); err != nil {
			return -1, err
		}
		alias, err := p.parseAlias(true)
		if err != nil {
			return -1, err
		}
		return p.addDerived(child, alias, corrs)
	}
	t := p.take()
	if t.kind != tokIdent {
		return -1, p.errf("expected table name, found %q", p.text(t))
	}
	alias, err := p.parseAlias(false)
	if err != nil {
		return -1, err
	}
	idx := p.qb.AddTable(strings.ToLower(p.text(t)), alias)
	return idx, p.qb.Err()
}

// parseAlias parses an optional [AS] alias; required reports an error when
// missing.
func (p *parser) parseAlias(required bool) (string, error) {
	if p.atKeyword("as") {
		p.take()
	}
	if t := p.cur(); t.kind == tokIdent && !isKeyword(p.text(t)) {
		p.take()
		return strings.ToLower(p.text(t)), nil
	}
	if required {
		return "", p.errf("derived table requires an alias")
	}
	return "", nil
}

// addDerived registers a child block as a derived table, wiring up its
// correlations as join predicates to this block.
func (p *parser) addDerived(child *query.Block, alias string, corrs []correlation) (int, error) {
	idx := p.qb.AddDerived(child, alias, len(corrs) > 0)
	if err := p.qb.Err(); err != nil {
		return -1, err
	}
	for _, c := range corrs {
		parentID := p.qb.Col(c.parentAlias, c.parentCol)
		childID := p.qb.ColByTableIndex(idx, c.childOrdinal)
		p.qb.Join(parentID, childID, query.Eq)
	}
	return idx, p.qb.Err()
}

// parseConds parses cond (AND cond)*. In an ON clause (onClause true) the
// referenced table indexes are recorded for outer-join bookkeeping.
func (p *parser) parseConds(onClause bool, onTables *[]int) error {
	for {
		if err := p.parseCond(onClause, onTables); err != nil {
			return err
		}
		if !p.atKeyword("and") {
			return nil
		}
		p.take()
	}
}

// parseCond parses one comparison: col op col, col op literal, or col IN
// (subquery).
func (p *parser) parseCond(onClause bool, onTables *[]int) error {
	left, err := p.parseRawCol()
	if err != nil {
		return err
	}
	if p.atKeyword("in") {
		p.take()
		if err := p.expectSymbol("("); err != nil {
			return err
		}
		sub := parser{src: p.src, tok: p.tok, cat: p.cat, a: p.a, name: p.a.Name(p.name, "/in"), outer: p.qb}
		child, corrs, err := sub.parseQuery()
		if err != nil {
			return err
		}
		p.tok = sub.tok
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
		p.subSeq++
		idx, err := p.addDerived(child, p.a.Name("subq", strconv.Itoa(p.subSeq)), corrs)
		if err != nil {
			return err
		}
		leftID, _, err := p.resolveCol(left)
		if err != nil {
			return err
		}
		p.qb.Join(leftID, p.qb.ColByTableIndex(idx, 0), query.Eq)
		return p.qb.Err()
	}

	opTok := p.take()
	if opTok.kind != tokSymbol {
		return p.errf("expected comparison operator, found %q", p.text(opTok))
	}
	op, err := predOp(p.text(opTok))
	if err != nil {
		return p.errf("%v", err)
	}

	rt := p.cur()
	if rt.kind == tokNumber || rt.kind == tokString {
		p.take()
		id, corr, err := p.resolveCol(left)
		if err != nil {
			return err
		}
		if corr {
			return p.errf("correlated predicate against a literal is not supported")
		}
		p.qb.Filter(id, op, 0)
		if onClause {
			*onTables = append(*onTables, p.tableOf(id))
		}
		return p.qb.Err()
	}

	right, err := p.parseRawCol()
	if err != nil {
		return err
	}
	return p.addColCond(left, right, op, onClause, onTables)
}

// addColCond resolves a column-to-column comparison, handling correlation
// against the parent scope.
func (p *parser) addColCond(left, right rawCol, op query.PredOp, onClause bool, onTables *[]int) error {
	lID, lCorr, err := p.resolveCol(left)
	if err != nil {
		return err
	}
	rID, rCorr, err := p.resolveCol(right)
	if err != nil {
		return err
	}
	switch {
	case lCorr && rCorr:
		return p.errf("predicate references only enclosing-query columns")
	case lCorr || rCorr:
		if op != query.Eq {
			return p.errf("correlated predicates must be equalities")
		}
		inner, outer := lID, right
		if lCorr {
			inner, outer = rID, left
		}
		// Expose the inner column and record the correlation; the parent
		// joins on it when the derived table is added.
		p.corrCols = append(p.corrCols, inner)
		p.corrs = append(p.corrs, correlation{
			parentAlias: outer.alias, parentCol: outer.col,
		})
		return nil
	default:
		if p.tableOf(lID) == p.tableOf(rID) {
			// A comparison between two columns of one table restricts that
			// table locally (e.g. l_receiptdate > l_commitdate); model it
			// as a range filter with the System R default selectivity.
			p.qb.Filter(lID, query.Gt, 1.0/3)
			if onClause {
				*onTables = append(*onTables, p.tableOf(lID))
			}
			return p.qb.Err()
		}
		p.qb.Join(lID, rID, op)
		if onClause {
			*onTables = append(*onTables, p.tableOf(lID), p.tableOf(rID))
		}
		return p.qb.Err()
	}
}

// parseColList parses col (',' col)* and appends each, resolved, to out.
func (p *parser) parseColList(out []query.ColID) ([]query.ColID, error) {
	for {
		rc, err := p.parseRawCol()
		if err != nil {
			return nil, err
		}
		id, corr, err := p.resolveCol(rc)
		if err != nil {
			return nil, err
		}
		if corr {
			return nil, p.errf("grouping/ordering on enclosing-query column %s.%s", rc.alias, rc.col)
		}
		out = append(out, id)
		if !p.atSymbol(",") {
			return out, nil
		}
		p.take()
	}
}

// parseRawCol parses [alias '.'] column.
func (p *parser) parseRawCol() (rawCol, error) {
	t := p.take()
	if t.kind != tokIdent || isKeyword(p.text(t)) {
		return rawCol{}, p.errf("expected column reference, found %q", p.text(t))
	}
	rc := rawCol{col: strings.ToLower(p.text(t))}
	if p.atSymbol(".") {
		p.take()
		c := p.take()
		if c.kind != tokIdent {
			return rawCol{}, p.errf("expected column name after %q.", p.text(t))
		}
		rc.alias = rc.col
		rc.col = strings.ToLower(p.text(c))
	}
	return rc, nil
}

// resolveCol resolves a raw column in this block's scope; when it refers to
// the enclosing query instead, correlated reports that and the ColID is
// invalid.
func (p *parser) resolveCol(rc rawCol) (id query.ColID, correlated bool, err error) {
	switch {
	case rc.alias == "":
		id, err = p.findCol(rc.col)
		return id, false, err
	case p.qb.HasAlias(rc.alias):
		id := p.qb.Col(rc.alias, rc.col)
		return id, false, p.qb.Err()
	case p.outer != nil && p.outer.HasAlias(rc.alias):
		return query.NoCol, true, nil
	}
	return query.NoCol, false, p.errf("unknown table alias %q", rc.alias)
}

// findCol resolves an unqualified column name to the one in-scope table
// exposing it.
func (p *parser) findCol(col string) (query.ColID, error) {
	id := p.qb.FindCol(col, 0)
	if id == query.NoCol {
		return query.NoCol, p.errf("unknown column %q", col)
	}
	if again := p.qb.FindCol(col, p.tableOf(id)+1); again != query.NoCol {
		aliases := p.qb.Aliases()
		return query.NoCol, p.errf("column %q is ambiguous (%s, %s)", col, aliases[p.tableOf(id)], aliases[p.tableOf(again)])
	}
	return id, nil
}

// tableOf returns the owning table index of a resolved column.
func (p *parser) tableOf(id query.ColID) int { return p.qb.TableIndexOf(id) }

// predOp maps an operator token to the model's PredOp.
func predOp(sym string) (query.PredOp, error) {
	switch sym {
	case "=":
		return query.Eq, nil
	case "<":
		return query.Lt, nil
	case "<=":
		return query.Le, nil
	case ">":
		return query.Gt, nil
	case ">=":
		return query.Ge, nil
	case "<>", "!=":
		return query.Ne, nil
	}
	return 0, fmt.Errorf("unsupported operator %q", sym)
}
