package core

import (
	"fmt"
	"time"

	"cote/internal/enum"
	"cote/internal/memo"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/query"
)

// MultiLevelEstimate holds per-level plan counts obtained from a single
// enumeration pass at the highest level — the Section 6.2 extension: "It's
// possible to estimate the compilation time of multiple levels of
// optimization in a single pass, as long as the search space of the highest
// level subsumes that of all other levels."
type MultiLevelEstimate struct {
	Levels  []opt.Level
	Counts  map[opt.Level]PlanCounts
	Joins   map[opt.Level]int
	Elapsed time.Duration
}

// EstimateLevels runs one enumeration at the top level and accumulates plan
// counts separately for every requested level whose search space the top
// level subsumes. The amortization is the point: one enumeration pays for
// all level estimates.
func EstimateLevels(blk *query.Block, top opt.Level, levels []opt.Level, opts Options) (*MultiLevelEstimate, error) {
	start := time.Now()
	for _, l := range levels {
		if l == opt.LevelLow {
			return nil, fmt.Errorf("core: the greedy level has no plan-count estimate")
		}
		if !top.Subsumes(l) {
			return nil, fmt.Errorf("core: level %v does not subsume %v", top, l)
		}
	}
	out := &MultiLevelEstimate{
		Levels: levels,
		Counts: make(map[opt.Level]PlanCounts),
		Joins:  make(map[opt.Level]int),
	}
	blocks := blk.Blocks()
	var cardBuf [8]float64 // as in EstimatePlans
	cards := cardBuf[:0]
	for i, b := range blocks {
		if opts.Exec.Cancelled() {
			return nil, opts.Exec.Err()
		}
		card, err := estimateBlockLevels(b, blocks[:i], cards, top, levels, opts, out)
		if err != nil {
			return nil, err
		}
		cards = append(cards, card)
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// estimateBlockLevels runs one block's single top-level enumeration, adds
// every requested level's counts to out and returns the block's output
// cardinality; done and cards are the blocks the run has finished and theirs.
func estimateBlockLevels(b *query.Block, done []*query.Block, cards []float64, top opt.Level, levels []opt.Level, opts Options, out *MultiLevelEstimate) (float64, error) {
	ws := acquireWorkspace(b, done, cards, opts)
	defer ws.release()

	// One counter per level, sharing the single enumeration. Property
	// propagation runs once (on the workspace's counter, whose counts are
	// never read); the per-level counters only accumulate counts for the
	// joins inside their space.
	topCnt := &ws.cnt
	cnts := make([]*counter, len(levels))
	for i := range levels {
		cnts[i] = topCnt.fork()
	}
	hooks := enum.Hooks{
		Init: topCnt.initialize,
		Join: func(outer, inner, result *memo.Entry) {
			for i, c := range cnts {
				if levelAdmits(levels[i], outer, inner) {
					// Count without re-propagating: share the lists built
					// by the top counter.
					c.countOnly(outer, inner, result)
				}
			}
			topCnt.accumulatePlans(outer, inner, result)
		},
	}
	if _, err := ws.enumerator(top, opts).Run(hooks); err != nil {
		return 0, err
	}
	for i, l := range levels {
		c := out.Counts[l]
		c.Add(cnts[i].counts)
		out.Counts[l] = c
		out.Joins[l] += cnts[i].joins
	}
	opts.Exec.EndBlock(ws.mem, 0, 0)
	return outputCard(b, ws.mem), nil
}

// fork clones the counter for a level's count-only pass: the configuration
// and the compound-vector map are shared — only the propagating counter
// writes them — while counts, joins and the per-join scratch are private.
func (c *counter) fork() *counter {
	return &counter{
		blk: c.blk, sc: c.sc, mem: c.mem,
		parallel: c.parallel, nodes: c.nodes,
		policy: c.policy, mode: c.mode, everyJoin: c.everyJoin,
		pipeFactor: c.pipeFactor,
		expTables:  c.expTables,
		vecs:       c.vecs,
		joinRep:    make([]bool, len(c.joinRep)),
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
// shared property lists: NLJN (full order propagation) generates one plan
// per interesting order of the outer plus the DC plan; MGJN (partial) one
// per merge-candidate order plus its coverage list; HSJN (none) exactly
// one — each scaled by the candidate execution partitions in parallel mode
// (the separate-list multiplication of Section 3.4).
func (c *counter) countOnly(outer, inner, result *memo.Entry) {
	outerCols, innerCols := c.joinCols(outer, inner)
	candParts := c.candidateParts(outer, inner, result, outerCols, innerCols)
	c.countWithCols(outer, inner, result, outerCols, candParts)
}

// countWithCols is countOnly with the join columns and execution partitions
// already computed — the shared hot path of accumulate_plans.
func (c *counter) countWithCols(outer, inner, result *memo.Entry, outerCols []query.ColID, candParts []props.Partition) {
	c.joins++
	if c.mode == CompoundLists {
		c.countCompound(outer, result, candParts, outerCols)
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
	if len(outerCols) > 0 {
		c.counts.ByMethod[props.MGJN] += c.mergeOrderCount(outer, result, outerCols) * nParts
		c.counts.ByMethod[props.HSJN] += nParts
	}
}
