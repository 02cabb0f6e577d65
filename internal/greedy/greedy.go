// Package greedy implements the polynomial-time low optimization level of
// the reproduced system: a greedy left-deep join-order heuristic in the
// spirit of the "low" levels the paper describes commercial optimizers
// offering ("a polynomial-time greedy method"). The meta-optimizer compiles
// a query here first, takes the resulting execution-cost estimate E, and
// asks the compilation-time estimator whether recompiling at the high
// (dynamic programming) level is worth its compilation cost C.
package greedy

import (
	"fmt"

	"cote/internal/bitset"
	"cote/internal/cost"
	"cote/internal/memo"
	"cote/internal/query"
)

// Result is the outcome of a greedy optimization.
type Result struct {
	// Plan is the left-deep plan found.
	Plan *memo.Plan
	// Cost is the plan's estimated execution cost in instruction units.
	Cost float64
	// JoinsConsidered counts the candidate joins the greedy pass costed,
	// a measure of its (polynomial) compilation effort.
	JoinsConsidered int
}

// Optimize runs the greedy heuristic: start from the table with the
// smallest filtered cardinality, then repeatedly join the connected table
// that yields the cheapest intermediate plan, falling back to the smallest
// Cartesian product when the remainder is disconnected. Only join order and
// method are chosen; physical properties are ignored, which is what makes
// the low level cheap and its plans potentially worse.
func Optimize(blk *query.Block, card *cost.Estimator, cfg *cost.Config) (*Result, error) {
	n := blk.NumTables()
	if n == 0 {
		return nil, fmt.Errorf("greedy: query %q has no tables", blk.Name)
	}
	res := &Result{}
	// The run's buffer-model memo: a few dozen costings share a handful of
	// page counts, and the table stays on this stack frame.
	var hits cost.HitMemo

	scan := func(t int) *memo.Plan {
		fc := card.FilteredCard(t)
		return &memo.Plan{
			Op: memo.OpTableScan, Tables: bitset.Single(t),
			Cost: cfg.ScanCost(&hits, card.Rows(t), fc), Card: fc,
		}
	}

	// Seed: smallest filtered table that may lead (outer-eligible).
	seed := -1
	for t := 0; t < n; t++ {
		if isNullProducing(blk, t) || blk.Tables[t].Correlated {
			continue
		}
		if seed < 0 || card.FilteredCard(t) < card.FilteredCard(seed) {
			seed = t
		}
	}
	if seed < 0 {
		seed = 0
	}
	cur := scan(seed)

	for cur.Tables.Len() < n {
		var plan *memo.Plan
		tryJoin := func(t int) {
			if !joinAllowed(blk, cur.Tables, t) {
				return
			}
			cand := bestJoin(blk, card, cfg, &hits, cur, scan(t), &res.JoinsConsidered)
			if plan == nil || cand.Cost < plan.Cost {
				plan = cand
			}
		}
		// Prefer connected tables.
		conn := blk.Neighbors(cur.Tables)
		for t := conn.Next(0); t >= 0; t = conn.Next(t + 1) {
			tryJoin(t)
		}
		if plan == nil {
			// Disconnected remainder: Cartesian product with any table.
			for t := 0; t < n; t++ {
				if !cur.Tables.Contains(t) {
					tryJoin(t)
				}
			}
		}
		if plan == nil {
			return nil, fmt.Errorf("greedy: query %q stuck at %v (outer-join constraints too tight)",
				blk.Name, cur.Tables)
		}
		cur = plan
	}
	res.Plan = cur
	res.Cost = cur.Cost
	return res, nil
}

// isNullProducing reports whether t is the null-producing side of an outer
// join.
func isNullProducing(blk *query.Block, t int) bool {
	for _, oj := range blk.OuterJoins {
		if oj.NullProducing == t {
			return true
		}
	}
	return false
}

// joinAllowed enforces the outer-join restriction: the null-producing table
// may only be added once all preserving tables its predicate references are
// present.
func joinAllowed(blk *query.Block, have bitset.Set, t int) bool {
	for _, oj := range blk.OuterJoins {
		if oj.NullProducing == t && !oj.PredReq.SubsetOf(have) {
			return false
		}
	}
	return true
}

// bestJoin returns the cheaper of a hash join and a nested-loops join
// between cur (outer) and the scan of one more table.
func bestJoin(blk *query.Block, card *cost.Estimator, cfg *cost.Config, hits *cost.HitMemo, cur, right *memo.Plan, considered *int) *memo.Plan {
	union := cur.Tables.Union(right.Tables)
	outCard := card.Card(union)
	var best *memo.Plan
	eqCols, _ := blk.AppendJoinCols(cur.Tables, right.Tables, nil, nil)
	hasEq := len(eqCols) > 0
	if hasEq {
		*considered++
		best = &memo.Plan{
			Op: memo.OpHSJN, Left: cur, Right: right, Tables: union,
			Cost: cfg.HSJNCost(hits, cur.Cost, cur.Card, right.Cost, right.Card, outCard),
			Card: outCard,
		}
	}
	*considered++
	nl := &memo.Plan{
		Op: memo.OpNLJN, Left: cur, Right: right, Tables: union,
		Cost: cfg.NLJNCost(hits, cur.Cost, cur.Card, right.Cost, right.Card, outCard),
		Card: outCard,
	}
	if best == nil || nl.Cost < best.Cost {
		best = nl
	}
	// Greedy merge join: sort both sides when an equality predicate exists.
	if hasEq {
		*considered++
		mg := &memo.Plan{
			Op: memo.OpMGJN, Left: cur, Right: right, Tables: union,
			Cost: cfg.MGJNCost(cur.Cost+cfg.SortCost(cur.Card), cur.Card,
				right.Cost+cfg.SortCost(right.Card), right.Card, outCard),
			Card: outCard,
		}
		if mg.Cost < best.Cost {
			best = mg
		}
	}
	return best
}
