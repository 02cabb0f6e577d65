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

// TestParseFetchFirstBounds pins the FETCH FIRST count to [0, MaxInt32]: the
// parser used to accumulate it without a bound, so 2^64+1 read as 1, 2^64
// as 0 (the clause silently gone, and with it the pipelineability property
// and the fingerprint's FirstN), and 2^63 as a negative count.
func TestParseFetchFirstBounds(t *testing.T) {
	const head = "SELECT o_orderkey FROM orders FETCH FIRST "
	blk, err := Parse(head+"2147483647 ROWS ONLY", tpch(t))
	if err != nil || blk.FirstN != 2147483647 {
		t.Fatalf("MaxInt32: FirstN %v, err %v", blk, err)
	}
	for _, n := range []string{"2147483648", "9223372036854775808", "18446744073709551616", "18446744073709551617"} {
		_, err := Parse(head+n+" ROWS ONLY", tpch(t))
		want := fmt.Sprintf("sql: offset %d: FETCH FIRST count %s exceeds 2147483647", len(head)+len(n)+1, n)
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", n, err, want)
		}
	}
}

// TestParseLexicalErrorFirst pins the error order: a lexical error anywhere
// in the statement is reported, not a grammatical error before it. The
// parser scans one token at a time and lexes the whole statement only once
// it has failed.
func TestParseLexicalErrorFirst(t *testing.T) {
	for _, sql := range []string{
		"SELECT FROM orders WHERE o_comment = 'open",
		"SELECT o_orderkey orders WHERE o_totalprice > 1.2.3",
		"SELECT o_orderkey FROM orders extra \u00e9",
	} {
		_, err := Parse(sql, tpch(t))
		if err == nil || strings.Contains(err.Error(), "sql: offset") {
			t.Errorf("%q: err = %v, want the lexical error", sql, err)
		}
	}
}

// firstWordsOracle is the block-name rule as it was first written: the
// words separated by single spaces, cut to 40 bytes and marked "..." when
// there are more.
func firstWordsOracle(sql string) string {
	name := strings.Join(strings.FieldsFunc(sql, func(r rune) bool { return r < 0x80 && class[r]&clsSpace != 0 }), " ")
	if len(name) > 40 {
		return name[:40] + "..."
	}
	return name
}

// TestFirstWordsMatchesOracle names blocks in arena text, piece by piece;
// the name must be the rule's for any spacing, at and around the cut.
func TestFirstWordsMatchesOracle(t *testing.T) {
	var a query.Arena
	words := []string{"SELECT", "a", "bb", "c_name,", "o_orderkey", "FROM", "x"}
	spaces := []string{" ", "  ", "\t", "\n ", " \r\n\t "}
	for seed := 0; seed < 2000; seed++ {
		var b strings.Builder
		for i := 0; i < seed%17; i++ {
			b.WriteString(spaces[(seed+i)%len(spaces)])
			b.WriteString(words[(seed*7+i*3)%len(words)])
		}
		b.WriteString(spaces[seed%len(spaces)])
		sql := b.String()
		if got, want := firstWords(&a, sql), firstWordsOracle(sql); got != want {
			t.Fatalf("firstWords(%q) = %q, want %q", sql, got, want)
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
