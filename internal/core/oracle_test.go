// Closed-form oracle tests: for pure chain and star join graphs the
// Ono-Lohman enumeration metrics — unordered join pairs, ordered joins, and
// MEMO entries — have exact analytical formulas at every optimization level.
// Running the full estimation pipeline (EstimatePlans, not the bare
// enumerator) against those formulas for n=2..10 pins the estimator's
// headline counts to arithmetic: any drift in enumeration, shape filtering,
// composite-inner limiting or stat plumbing breaks an equation rather than a
// snapshot.
package core

import (
	"fmt"
	"testing"

	"cote/internal/catalog"
	"cote/internal/enum"
	"cote/internal/opt"
	"cote/internal/query"
)

// oracleChain builds a bare chain t0-t1-...-t{n-1}: one join predicate per
// edge, uniform row counts, no ORDER BY / GROUP BY — nothing but the join
// graph, so the closed forms apply exactly.
func oracleChain(tb testing.TB, n int) *query.Block {
	tb.Helper()
	cb := catalog.NewBuilder("oracle_chain")
	for i := 0; i < n; i++ {
		cb.Table(fmt.Sprintf("t%d", i), 10_000).Column("a", 100).Column("b", 100)
	}
	cat := cb.Build()
	qb := query.NewBuilder(fmt.Sprintf("chain%d", n), cat)
	for i := 0; i < n; i++ {
		qb.AddTable(fmt.Sprintf("t%d", i), "")
	}
	for i := 0; i+1 < n; i++ {
		qb.JoinEq(fmt.Sprintf("t%d", i), "b", fmt.Sprintf("t%d", i+1), "a")
	}
	return qb.MustBuild()
}

// oracleStar builds a bare star: hub t0 joined to n-1 satellites, one
// predicate per edge, no sorting clauses.
func oracleStar(tb testing.TB, n int) *query.Block {
	tb.Helper()
	cb := catalog.NewBuilder("oracle_star")
	hub := cb.Table("t0", 10_000)
	for i := 1; i < n; i++ {
		hub.Column(fmt.Sprintf("c%d", i), 100)
	}
	for i := 1; i < n; i++ {
		cb.Table(fmt.Sprintf("t%d", i), 10_000).Column("a", 100)
	}
	cat := cb.Build()
	qb := query.NewBuilder(fmt.Sprintf("star%d", n), cat)
	for i := 0; i < n; i++ {
		qb.AddTable(fmt.Sprintf("t%d", i), "")
	}
	for i := 1; i < n; i++ {
		qb.JoinEq("t0", fmt.Sprintf("c%d", i), fmt.Sprintf("t%d", i), "a")
	}
	return qb.MustBuild()
}

// chainOracle returns the exact (pairs, joins) for a chain of n at the given
// DP level, Cartesian products forbidden. Every feasible subproblem of a
// chain is an interval [i,j]; a pair splits an interval of length L into two
// subintervals, and each level admits a subset of the splits/orientations:
//
//	high:     every split, both orientations — pairs Σ(n-L+1)(L-1) = (n³-n)/6,
//	          joins 2·pairs.
//	inner2:   splits with a side ≤ 2 tables: min(L-1, 4) pairs per interval;
//	          orientations with inner ≤ 2: 2 for L=2, else 4 per interval.
//	zigzag:   splits with a single-table side: 1 (L=2) or 2 (L≥3) pairs per
//	          interval, both orientations (the single side satisfies the
//	          zigzag rule as outer or inner) — joins 2·pairs.
//	leftdeep: same pairs as zigzag, but the single table must be the inner:
//	          2 joins for L=2 (both sides single), else 1 per pair.
func chainOracle(level opt.Level, n int) (pairs, joins int) {
	for L := 2; L <= n; L++ {
		intervals := n - L + 1
		var p, j int
		switch level {
		case opt.LevelHigh:
			p = L - 1
			j = 2 * p
		case opt.LevelHighInner2:
			p = min(L-1, 4)
			if L == 2 {
				j = 2
			} else {
				j = 4
			}
		case opt.LevelMediumZigZag:
			p = min(L-1, 2)
			j = 2 * p
		case opt.LevelMediumLeftDeep:
			p = min(L-1, 2)
			j = p
			if L == 2 {
				j = 2
			}
		}
		pairs += intervals * p
		joins += intervals * j
	}
	return pairs, joins
}

// starOracle returns the exact (pairs, joins) for a star of n (hub + n-1
// satellites), Cartesian products forbidden. Every feasible pair splits a
// hub-containing subset from one satellite, so pairs = (n-1)·2^(n-2) at
// every level; the levels differ only in which reversed orientations
// (satellite as outer, hub side as inner) they admit:
//
//	high, zigzag: all of them (the satellite side is always a single table,
//	              which satisfies the zigzag rule in either role) —
//	              joins (n-1)·2^(n-1).
//	inner2:       hub side ≤ 2 tables: the (n-1)² pairs whose hub side is the
//	              hub alone or hub+one — joins (n-1)·(2^(n-2) + n-1).
//	leftdeep:     hub side single (the hub alone): n-1 pairs —
//	              joins (n-1)·(2^(n-2) + 1).
func starOracle(level opt.Level, n int) (pairs, joins int) {
	pairs = (n - 1) << (n - 2)
	switch level {
	case opt.LevelHigh, opt.LevelMediumZigZag:
		joins = 2 * pairs
	case opt.LevelHighInner2:
		joins = pairs + (n-1)*(n-1)
	case opt.LevelMediumLeftDeep:
		joins = pairs + (n - 1)
	}
	return pairs, joins
}

var oracleLevels = []opt.Level{
	opt.LevelMediumLeftDeep, opt.LevelMediumZigZag, opt.LevelHighInner2, opt.LevelHigh,
}

// TestChainCountsMatchClosedForm runs the full estimation pipeline over
// chains of 2..10 tables at every DP level and demands the exact analytical
// pair/join/entry counts.
func TestChainCountsMatchClosedForm(t *testing.T) {
	for n := 2; n <= 10; n++ {
		blk := oracleChain(t, n)
		for _, level := range oracleLevels {
			est, err := EstimatePlans(blk, Options{Level: level, CartesianPolicy: enum.CartesianNever})
			if err != nil {
				t.Fatalf("chain n=%d %v: %v", n, level, err)
			}
			wantPairs, wantJoins := chainOracle(level, n)
			if est.Pairs != wantPairs || est.Joins != wantJoins {
				t.Errorf("chain n=%d %v: pairs=%d joins=%d, closed form pairs=%d joins=%d",
					n, level, est.Pairs, est.Joins, wantPairs, wantJoins)
			}
			// A chain's MEMO holds every connected interval: n(n+1)/2 entries,
			// at every level (shape rules prune joins, not reachable subsets).
			if got, want := est.Entries, n*(n+1)/2; got != want {
				t.Errorf("chain n=%d %v: %d MEMO entries, closed form %d", n, level, got, want)
			}
		}
	}
}

// TestStarCountsMatchClosedForm is the star-shape counterpart.
func TestStarCountsMatchClosedForm(t *testing.T) {
	for n := 2; n <= 10; n++ {
		blk := oracleStar(t, n)
		for _, level := range oracleLevels {
			est, err := EstimatePlans(blk, Options{Level: level, CartesianPolicy: enum.CartesianNever})
			if err != nil {
				t.Fatalf("star n=%d %v: %v", n, level, err)
			}
			wantPairs, wantJoins := starOracle(level, n)
			if est.Pairs != wantPairs || est.Joins != wantJoins {
				t.Errorf("star n=%d %v: pairs=%d joins=%d, closed form pairs=%d joins=%d",
					n, level, est.Pairs, est.Joins, wantPairs, wantJoins)
			}
			// Feasible subsets: each satellite alone plus every hub-containing
			// subset — (n-1) + 2^(n-1) MEMO entries.
			if got, want := est.Entries, (n-1)+1<<(n-1); got != want {
				t.Errorf("star n=%d %v: %d MEMO entries, closed form %d", n, level, got, want)
			}
		}
	}
}

// TestLevelLadderOrdersSearchSpaces pins the ladder's reason for existing:
// on the same query, each downgrade step must enumerate no more work than
// the level above it — joins and pairs both non-increasing, their sum
// strictly shrinking. (Strictness holds for the sum, not each metric alone:
// on chains, inner2 and zigzag admit the same ordered joins and differ only
// in pairs.) This is the analytical backbone of both admission downgrades
// and the overload ladder: stepping down is guaranteed to shed enumeration.
func TestLevelLadderOrdersSearchSpaces(t *testing.T) {
	for n := 4; n <= 10; n += 2 {
		blk := oracleChain(t, n)
		prevJoins, prevPairs := -1, -1
		for i := len(oracleLevels) - 1; i >= 0; i-- { // high → leftdeep
			est, err := EstimatePlans(blk, Options{Level: oracleLevels[i], CartesianPolicy: enum.CartesianNever})
			if err != nil {
				t.Fatal(err)
			}
			if prevJoins >= 0 {
				if est.Joins > prevJoins || est.Pairs > prevPairs ||
					est.Joins+est.Pairs >= prevJoins+prevPairs {
					t.Errorf("chain n=%d: %v enumerates joins=%d pairs=%d, not less work than the level above (joins=%d pairs=%d)",
						n, oracleLevels[i], est.Joins, est.Pairs, prevJoins, prevPairs)
				}
			}
			prevJoins, prevPairs = est.Joins, est.Pairs
		}
	}
}
