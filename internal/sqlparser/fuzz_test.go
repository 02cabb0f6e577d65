package sqlparser

import (
	"testing"

	"cote/internal/catalog"
	"cote/internal/fingerprint"
	"cote/internal/query"
)

// FuzzParse throws arbitrary byte strings at the SQL front door. The parser
// guards every entry point of the service, so its contract under garbage is
// the robustness floor of the whole stack: never panic, never hang, and be
// a pure function — the same input against the same catalog must either
// fail identically or produce structurally identical blocks (equal
// fingerprints) on every call, into a fresh arena or a reused one.
//
// Seeds live in testdata/fuzz/FuzzParse (one valid query per supported
// clause, plus near-miss malformed inputs that exercise error paths);
// f.Add mirrors a few inline so the corpus survives a testdata wipe.
func FuzzParse(f *testing.F) {
	f.Add("SELECT c_name FROM customer")
	f.Add("SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey")
	f.Add("SELECT 1 FROM")
	f.Add("SELECT c_name FROM customer WHERE c_acctbal > 100.5 ORDER BY c_name FETCH FIRST 10 ROWS ONLY")
	f.Add("select\x00nul")
	// Bytes of 0x80 and above outside a literal, and malformed numbers.
	f.Add("SELECT c_name FROM customer\u00a0\u00a0 WHERE c_acctbal > 1")
	f.Add("SELECT c_name FROM customer \u00aa")
	f.Add("SELECT c_name FROM customer \u00e9")
	f.Add("SELECT c_name FROM customer WHERE c_acctbal > 1.2.3 AND c_custkey < 1..")
	f.Add("SELECT c_name FROM customer FETCH FIRST 18446744073709551616 ROWS ONLY")
	cat := catalog.TPCH(1, 1)
	// The second parse goes into an arena that every input reuses, as the
	// service's pooled arenas are reused.
	var arena query.Arena
	f.Fuzz(func(t *testing.T, sql string) {
		blk, err := Parse(sql, cat)
		arena.Reset()
		blk2, err2 := ParseIn(&arena, sql, cat)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("parse nondeterministic: first err=%v, second err=%v", err, err2)
		}
		if err != nil {
			return
		}
		if blk == nil {
			t.Fatal("nil block with nil error")
		}
		// Structural determinism: two parses of the same SQL fingerprint
		// identically.
		if a, b := fingerprint.Of(blk), fingerprint.Of(blk2); a != b {
			t.Fatalf("same SQL parsed to different structures: %s vs %s", a, b)
		}
	})
}
