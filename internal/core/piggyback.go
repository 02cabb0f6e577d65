package core

import (
	"cote/internal/enum"
	"cote/internal/memo"
	"cote/internal/opt"
	"cote/internal/props"
)

// forLevels returns the n counters of a multi-level pass: c itself at
// index top, the level whose joins it sees all of, and a count-only fork at
// every other.
func (c *counter) forLevels(n, top int) []*counter {
	cnts := make([]*counter, n)
	for i := range cnts {
		if i == top {
			cnts[i] = c
		} else {
			cnts[i] = c.fork()
		}
	}
	return cnts
}

// fork clones the counter for a level's count-only pass: the configuration,
// the lone predicates and the compound-vector map are shared — only the
// propagating counter writes them — while counts, joins, pairs and the
// per-join scratch are private.
func (c *counter) fork() *counter {
	return &counter{
		blk: c.blk, sc: c.sc, mem: c.mem,
		parallel: c.parallel, nodes: c.nodes,
		policy: c.policy, mode: c.mode, everyJoin: c.everyJoin,
		pipeFactor: c.pipeFactor,
		expTables:  c.expTables,
		vecs:       c.vecs,
		lone:       c.lone,
		repMark:    make([]uint8, len(c.repMark)),
	}
}

// levelAdmits reports whether the (outer, inner) orientation lies in the
// search space of the level.
func levelAdmits(l opt.Level, outer, inner *memo.Entry) bool {
	o := l.EnumOptions()
	innerSize := inner.Tables.Len()
	switch o.Shape {
	case enum.LeftDeep:
		if innerSize != 1 {
			return false
		}
	case enum.ZigZag:
		if innerSize != 1 && outer.Tables.Len() != 1 {
			return false
		}
	}
	if o.CompositeInnerLimit > 0 && innerSize > o.CompositeInnerLimit {
		return false
	}
	return true
}

// countOnly accumulates plan counts for one join without touching the
// shared property lists.
func (c *counter) countOnly(outer, inner, result *memo.Entry) {
	c.pair(outer, inner)
	c.count(outer, inner, result, c.candidateParts(outer, inner, result))
}

// count accumulates one join's plans: NLJN (full order propagation)
// generates one plan per interesting order of the outer plus the DC plan;
// MGJN (partial) one per merge-candidate order plus its coverage list; HSJN
// (none) exactly one — each scaled by the candidate execution partitions in
// parallel mode (the separate-list multiplication of Section 3.4).
func (c *counter) count(outer, inner, result *memo.Entry, candParts []props.Partition) {
	c.joins++
	if c.mode == CompoundLists {
		c.countCompound(outer, inner, result, candParts)
		return
	}
	nParts := len(candParts)
	// Expensive-predicate deferral adds one plan lane per expensive table
	// in the outer (the defer-past-joins variants NLJN carries upward).
	lanes := c.expTables.Intersect(outer.Tables).Len()
	// Pipelineability adds one lane when the outer is composite: composite
	// entries keep both a pipelined (NLJN-topped) and a blocking don't-care
	// plan, while a base table's only don't-care plan is the (pipelined)
	// scan.
	if c.pipeFactor > 1 && outer.Tables.Len() >= 2 {
		lanes++
	}
	c.counts.ByMethod[props.NLJN] += (outer.Orders.Len() + 1 + lanes) * nParts
	if c.cross > 0 {
		c.counts.ByMethod[props.MGJN] += c.mergeOrders(outer, inner, result) * nParts
		c.counts.ByMethod[props.HSJN] += nParts
	}
}
