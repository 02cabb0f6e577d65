package sqlparser

import (
	"fmt"
	"strings"
	"testing"

	"cote/internal/catalog"
	"cote/internal/query"
)

func tpch(t testing.TB) *catalog.Catalog { t.Helper(); return catalog.TPCH(1, 1) }

func TestParseSimpleJoin(t *testing.T) {
	blk, err := Parse(`
		SELECT o_orderkey, o_totalprice
		FROM orders, customer
		WHERE o_custkey = c_custkey AND c_mktsegment = 'BUILDING'
		ORDER BY o_totalprice`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	if blk.NumTables() != 2 {
		t.Fatalf("tables = %d", blk.NumTables())
	}
	if len(blk.JoinPreds) != 1 || blk.JoinPreds[0].Op != query.Eq {
		t.Fatalf("join preds = %+v", blk.JoinPreds)
	}
	if len(blk.LocalPreds) != 1 {
		t.Fatalf("local preds = %+v", blk.LocalPreds)
	}
	if len(blk.OrderBy) != 1 || len(blk.Select) != 2 {
		t.Fatalf("orderby/select = %v/%v", blk.OrderBy, blk.Select)
	}
}

func TestParseQualifiedAndAliased(t *testing.T) {
	blk, err := Parse(`
		SELECT l.l_extendedprice
		FROM lineitem AS l, orders o
		WHERE l.l_orderkey = o.o_orderkey AND o.o_orderdate < 19950315`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	if blk.Tables[0].Alias != "l" || blk.Tables[1].Alias != "o" {
		t.Fatalf("aliases = %q, %q", blk.Tables[0].Alias, blk.Tables[1].Alias)
	}
	if blk.LocalPreds[0].Op != query.Lt {
		t.Fatalf("op = %v", blk.LocalPreds[0].Op)
	}
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	blk, err := Parse(`
		SELECT l_returnflag, SUM(l_quantity), COUNT(*), AVG(l_discount)
		FROM lineitem
		GROUP BY l_returnflag, l_linestatus
		ORDER BY l_returnflag`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	if blk.NumAggs != 3 {
		t.Fatalf("aggs = %d", blk.NumAggs)
	}
	if len(blk.GroupBy) != 2 || len(blk.OrderBy) != 1 {
		t.Fatalf("groupby/orderby = %v/%v", blk.GroupBy, blk.OrderBy)
	}
}

func TestParseExplicitJoinSyntax(t *testing.T) {
	blk, err := Parse(`
		SELECT c_name
		FROM customer JOIN orders ON c_custkey = o_custkey
		JOIN lineitem ON o_orderkey = l_orderkey`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	if blk.NumTables() != 3 || len(blk.JoinPreds) != 2 {
		t.Fatalf("tables=%d preds=%d", blk.NumTables(), len(blk.JoinPreds))
	}
}

func TestParseLeftOuterJoin(t *testing.T) {
	blk, err := Parse(`
		SELECT c_name
		FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.OuterJoins) != 1 {
		t.Fatalf("outer joins = %+v", blk.OuterJoins)
	}
	oj := blk.OuterJoins[0]
	if oj.NullProducing != 1 || !oj.PredReq.Contains(0) {
		t.Fatalf("outer join = %+v", oj)
	}
	// LEFT JOIN without OUTER also accepted.
	blk2 := MustParse(`SELECT c_name FROM customer LEFT JOIN orders ON c_custkey = o_custkey`, tpch(t))
	if len(blk2.OuterJoins) != 1 {
		t.Fatal("LEFT JOIN shorthand not accepted")
	}
}

func TestParseDerivedTable(t *testing.T) {
	blk, err := Parse(`
		SELECT v.o_custkey
		FROM (SELECT o_custkey, o_totalprice FROM orders WHERE o_orderstatus = 'F') AS v, customer
		WHERE v.o_custkey = c_custkey`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	if blk.NumTables() != 2 || !blk.Tables[0].IsDerived() {
		t.Fatalf("derived table missing: %+v", blk.Tables)
	}
	blocks := blk.Blocks()
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	child := blocks[0]
	if len(child.LocalPreds) != 1 || len(child.Select) != 2 {
		t.Fatalf("child = %+v", child)
	}
}

func TestParseInSubquery(t *testing.T) {
	blk, err := Parse(`
		SELECT o_orderkey
		FROM orders
		WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'AUTOMOBILE')`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	if blk.NumTables() != 2 || !blk.Tables[1].IsDerived() {
		t.Fatal("IN subquery not converted to a derived table")
	}
	if blk.Tables[1].Correlated {
		t.Fatal("uncorrelated subquery marked correlated")
	}
	if len(blk.JoinPreds) != 1 {
		t.Fatalf("join preds = %+v", blk.JoinPreds)
	}
}

func TestParseCorrelatedSubquery(t *testing.T) {
	blk, err := Parse(`
		SELECT o_orderkey
		FROM orders o
		WHERE o.o_custkey IN (SELECT c_custkey FROM customer c WHERE c.c_nationkey = o.o_shippriority)`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	var derived *query.TableRef
	for _, ref := range blk.Tables {
		if ref.IsDerived() {
			derived = ref
		}
	}
	if derived == nil || !derived.Correlated {
		t.Fatal("correlated subquery not marked")
	}
	// Decorrelation added a second join predicate (o_custkey=c_custkey plus
	// the correlation equality).
	if len(blk.JoinPreds) < 2 {
		t.Fatalf("join preds = %+v", blk.JoinPreds)
	}
}

func TestParseUnqualifiedAmbiguity(t *testing.T) {
	cb := catalog.NewBuilder("amb")
	cb.Table("r", 10).Column("x", 5)
	cb.Table("s", 10).Column("x", 5)
	cat := cb.Build()
	_, err := Parse(`SELECT x FROM r, s WHERE r.x = s.x`, cat)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous column accepted: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cat := tpch(t)
	cases := []struct{ name, sql string }{
		{"missing select", `FROM orders`},
		{"missing from", `SELECT o_orderkey`},
		{"unknown table", `SELECT x FROM nope`},
		{"unknown column", `SELECT nope FROM orders`},
		{"unknown alias", `SELECT z.o_orderkey FROM orders o`},
		{"bad operator", `SELECT o_orderkey FROM orders WHERE o_orderkey == 3`},
		{"trailing junk", `SELECT o_orderkey FROM orders extra garbage`},
		{"derived without alias", `SELECT o_orderkey FROM (SELECT o_orderkey FROM orders)`},
		{"unterminated string", `SELECT o_orderkey FROM orders WHERE o_comment = 'x`},
		{"unterminated paren", `SELECT o_orderkey FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer`},
		{"literal vs literal", `SELECT o_orderkey FROM orders WHERE 1 = 1`},
		{"missing on", `SELECT c_name FROM customer JOIN orders`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.sql, cat); err == nil {
				t.Fatalf("accepted: %s", tc.sql)
			}
		})
	}
}

// TestParseNonASCIIOutsideLiteral pins the byte-class lexer: identifiers and
// whitespace are ASCII, so a byte of 0x80 or above outside a string literal
// is an error at that byte's offset — the rune-per-byte lexer took 0xC2 for
// the letter Â, 0xA0 for a space and 0xAA for the letter ª.
func TestParseNonASCIIOutsideLiteral(t *testing.T) {
	const head = "SELECT c_name FROM customer"
	for _, tc := range []struct {
		name, sql string
		char      string
		offset    int
	}{
		{"nbsp", head + "\u00a0\u00a0 WHERE c_acctbal > 1", `'Â'`, len(head)},
		{"ordinal", head + " \u00aa", `'Â'`, len(head) + 1},
		{"eacute", head + " \u00e9", `'Ã'`, len(head) + 1},
		{"mid identifier", "SELECT c_n\u00e4me FROM customer", `'Ã'`, len("SELECT c_n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.sql, tpch(t))
			want := fmt.Sprintf("sql: unexpected character %s at offset %d", tc.char, tc.offset)
			if err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %s", err, want)
			}
		})
	}
	// A literal passes its bytes through.
	blk, err := Parse("SELECT c_name FROM customer WHERE c_name = 'caf\u00e9\u00a0\u00aa'", tpch(t))
	if err != nil || len(blk.LocalPreds) != 1 {
		t.Fatalf("non-ASCII literal: block %+v, err %v", blk, err)
	}
}

// TestParseNumbers pins the number grammar, digits[.digits]: the lexer took
// any run of digits and dots.
func TestParseNumbers(t *testing.T) {
	const head = "SELECT c_name FROM customer WHERE c_acctbal > "
	for _, tc := range []struct{ num, wantErr string }{
		{"1", ""},
		{"1.5", ""},
		{"1.", fmt.Sprintf(`sql: malformed number "1." at offset %d`, len(head))},
		{"1.2.3", fmt.Sprintf(`sql: malformed number "1.2.3" at offset %d`, len(head))},
		{"1..", fmt.Sprintf(`sql: malformed number "1.." at offset %d`, len(head))},
		{".5", fmt.Sprintf(`sql: offset %d: expected column reference, found "."`, len(head)+1)},
	} {
		_, err := Parse(head+tc.num+" ORDER BY c_name", tpch(t))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: %v", tc.num, err)
		case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
			t.Errorf("%q: err = %v, want %s", tc.num, err, tc.wantErr)
		}
	}
	if _, err := Parse("SELECT c_name FROM customer FETCH FIRST 1.5 ROWS ONLY", tpch(t)); err == nil ||
		!strings.Contains(err.Error(), "non-integer FETCH FIRST count") {
		t.Errorf("FETCH FIRST 1.5: err = %v, want the non-integer error", err)
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	blk, err := Parse(`select O_ORDERKEY from ORDERS where o_ORDERkey = 5`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	if blk.NumTables() != 1 || len(blk.LocalPreds) != 1 {
		t.Fatal("case-insensitive parse failed")
	}
}

func TestParseComments(t *testing.T) {
	blk, err := Parse(`
		-- fetch orders
		SELECT o_orderkey -- key column
		FROM orders`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	if blk.NumTables() != 1 {
		t.Fatal("comment handling broke the parse")
	}
}

func TestParseFetchFirst(t *testing.T) {
	blk, err := Parse(`SELECT o_orderkey FROM orders, lineitem
		WHERE o_orderkey = l_orderkey
		FETCH FIRST 25 ROWS ONLY`, tpch(t))
	if err != nil {
		t.Fatal(err)
	}
	if blk.FirstN != 25 {
		t.Fatalf("FirstN = %d", blk.FirstN)
	}
	for _, bad := range []string{
		`SELECT o_orderkey FROM orders FETCH 25 ROWS ONLY`,
		`SELECT o_orderkey FROM orders FETCH FIRST x ROWS ONLY`,
		`SELECT o_orderkey FROM orders FETCH FIRST 25 ROWS`,
	} {
		if _, err := Parse(bad, tpch(t)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad SQL")
		}
	}()
	MustParse(`SELECT`, tpch(t))
}

func TestParsedQueryOptimizes(t *testing.T) {
	// End-to-end smoke: a parsed 4-table query flows through Finalize and
	// has a connected join graph.
	blk := MustParse(`
		SELECT n_name, SUM(l_extendedprice)
		FROM customer, orders, lineitem, nation
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
		  AND c_nationkey = n_nationkey AND o_orderdate < 500
		GROUP BY n_name
		ORDER BY n_name`, tpch(t))
	if !blk.IsConnected(blk.AllTables()) {
		t.Fatal("parsed join graph disconnected")
	}
	if len(blk.GroupBy) != 1 || blk.NumAggs != 1 {
		t.Fatal("group by / aggregates wrong")
	}
}
