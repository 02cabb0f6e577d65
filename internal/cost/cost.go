package cost

import "math"

// Machine and storage constants of the cost model, in abstract "instruction"
// units so that the paper's T = Tinst * sum(Ct * Pt) conversion applies
// directly.
const (
	rowsPerPage = 40     // 4 KiB pages, ~100-byte rows
	ioPage      = 4_000  // instructions equivalent of one page read
	cpuRow      = 60     // per-row CPU cost of a scan or probe
	cpuCompare  = 12     // per-comparison CPU cost (sorts, merges)
	cpuHash     = 40     // per-row hashing cost (build or probe side)
	commRow     = 150    // per-row communication cost between nodes
	bufferPages = 10_000 // buffer pool size used by the hit-ratio model
	seekCost    = 30_000 // instructions equivalent of one random seek
)

// Config parameterizes the cost formulas. Nodes > 1 engages the
// shared-nothing parallel model: partitioned work divides across nodes and
// repartitioning pays communication costs.
type Config struct {
	Nodes int
}

// Serial is the configuration of the serial optimizer.
var Serial = &Config{Nodes: 1}

// Parallel4 is the 4-logical-node configuration matching the paper's
// parallel experiments.
var Parallel4 = &Config{Nodes: 4}

// nodes returns the effective node count (at least 1).
func (c *Config) nodes() float64 {
	if c == nil || c.Nodes < 1 {
		return 1
	}
	return float64(c.Nodes)
}

// bufferHitRatio iterates the standard fixed-point approximation of the
// buffer hit ratio for an access pattern touching the given number of
// distinct pages. It is a pure function of its argument; costing reaches it
// through a HitMemo, so within one optimization each distinct page count
// pays the twelve-step iteration at most once, and the two join searches
// (NLJNTerms, HSJNCost) ask for it only at the candidates whose hitCeil
// floor can still beat the cheapest one priced so far.
func bufferHitRatio(pages float64) float64 {
	if pages <= 0 {
		return 1
	}
	ratio := bufferPages / (bufferPages + pages)
	for i := 0; i < 12; i++ {
		resident := bufferPages * (1 - math.Exp(-pages/bufferPages*(1-ratio)))
		next := resident / math.Max(pages, 1)
		if next > 1 {
			next = 1
		}
		ratio = 0.5*ratio + 0.5*next
	}
	return ratio
}

// hitCeil bounds bufferHitRatio from above at every positive argument. In a
// step from any ratio in [0, 1], 1 − e^−x ≤ x gives resident ≤
// pages·(1 − ratio), and next divides that by max(pages, 1), so next ≤
// 1 − ratio and the step's ½·ratio + ½·next is at most ½. The function runs
// twelve steps, so its result is at most ½; rounding does not reach it: the
// largest result is 0.49999375, at pages = 1
// (TestHitCeilBoundsBufferHitRatio sweeps the domain). A cost term priced at
// hitCeil instead of the hit ratio is therefore a floor wherever the term
// grows with 1 − hit, which is what lets the join searches skip candidates
// without evaluating the buffer model for them.
const hitCeil = 0.5

// cheapest returns the index of the lowest floor under best, or -1 when
// there is none. The join searches price candidates in this order and stop
// at -1: a candidate whose floor is not under best costs at least best and
// cannot win a strict <, and a NaN floor belongs to a NaN cost, which never
// wins either. A search raises a candidate's floor to +Inf once priced.
func cheapest(floor []float64, best float64) int {
	k := -1
	for i, f := range floor {
		if f < best {
			best, k = f, i
		}
	}
	return k
}

// A HitMemo holds 256 sets of hitMemoWays entries: 1024 entries in
// 16 KiB, one 64-byte set per lookup. Of the lookups that remain once
// nested-loops costing has shared its terms and the join searches' floors
// have ruled out the candidates that cannot win, it answers 95-99.99% on the
// experiment workloads and 80% on the benchmark's compile workload. Sets
// rather than direct mapping because a compile keeps a few hundred
// arguments live, and direct-mapped entries lose hits to their collisions
// (DESIGN.md §15).
const (
	hitMemoSetBits = 8
	hitMemoWays    = 4
)

// hitEntry is one memoized point of the buffer model.
type hitEntry struct {
	key uint64 // math.Float64bits of the argument; 0 marks an empty entry
	hit float64
}

// HitMemo is a small set-associative cache of bufferHitRatio keyed on the
// bits of its argument, each set kept in most-recently-used order. The zero
// value is empty and ready to use. A memo belongs to one goroutine (the plan
// generator keeps one in its pooled scratch) and is never invalidated: the
// function is pure, so whatever an earlier query left in an entry is still
// the right answer for that key.
type HitMemo struct {
	sets [1 << hitMemoSetBits][hitMemoWays]hitEntry
}

// hitMemoSet returns the set a key belongs to. Page counts are mostly small
// integers, whose mantissa tails are zero, so the set comes from the top
// bits of a multiplicative hash.
func hitMemoSet(key uint64) uint64 {
	return key * 0x9E3779B97F4A7C15 >> (64 - hitMemoSetBits)
}

// hitRatio returns bufferHitRatio(pages), evaluating it only when the set
// of pages does not hold that argument. Non-positive arguments are answered
// before the table, which keeps +0 (bits 0) from ever being stored, so the
// zero key can mark empty entries.
func (m *HitMemo) hitRatio(pages float64) float64 {
	if pages <= 0 {
		return 1
	}
	key := math.Float64bits(pages)
	set := &m.sets[hitMemoSet(key)]
	if set[0].key == key {
		return set[0].hit
	}
	// Find the argument further down the set, or settle on the last, least
	// recently used entry; either way it moves to the front.
	i := 1
	for i < hitMemoWays-1 && set[i].key != key {
		i++
	}
	e := set[i]
	if e.key != key {
		e = hitEntry{key, bufferHitRatio(pages)}
	}
	copy(set[1:i+1], set[:i])
	set[0] = e
	return e.hit
}

// pagesOf returns the page count of a rowset.
func pagesOf(rows float64) float64 {
	return math.Ceil(math.Max(rows, 0) / rowsPerPage)
}

// perNode scales a partitioned rowset down to the share one node processes.
func (c *Config) perNode(rows float64) float64 {
	return rows / c.nodes()
}

// ScanCost returns the cost of a full table scan producing outRows of
// tableRows (local predicates applied during the scan).
func (c *Config) ScanCost(m *HitMemo, tableRows, outRows float64) float64 {
	rows := c.perNode(tableRows)
	pages := pagesOf(rows)
	hit := m.hitRatio(pages)
	io := pages * (1 - hit) * ioPage
	cpu := rows*cpuRow + c.perNode(outRows)*cpuRow/4
	return io + cpu + seekCost
}

// IndexScanCost returns the cost of fetching matchRows of tableRows through
// an index: a descent per range plus data-page fetches per Yao's formula.
func (c *Config) IndexScanCost(m *HitMemo, tableRows, matchRows float64) float64 {
	rows := c.perNode(tableRows)
	match := c.perNode(matchRows)
	dataPages := pagesOf(rows)
	touched := yao(rows, dataPages, match)
	hit := m.hitRatio(touched)
	descent := math.Log2(math.Max(rows, 2)) * cpuCompare
	io := touched * (1 - hit) * (ioPage + seekCost/4)
	return descent + io + match*cpuRow
}

// SortCost returns the cost of sorting rows (an enforcer placed under a
// merge join or at the top for ORDER BY / GROUP BY). External sort beyond
// the buffer pool pays extra merge passes.
func (c *Config) SortCost(rows float64) float64 {
	n := math.Max(c.perNode(rows), 1)
	cmp := n * math.Log2(n+1) * cpuCompare
	pages := pagesOf(n)
	passes := 0.0
	if pages > bufferPages {
		passes = math.Ceil(math.Log(pages/bufferPages)/math.Log(8)) + 1
	}
	return cmp + passes*pages*2*ioPage + seekCost
}

// nljnBlocks are the block sizes, in outer rows, that NLJNTerms tries.
var nljnBlocks = [7]float64{1, 4, 16, 64, 256, 1024, 4096}

// NLJNTerms holds the parts of a nested-loops join's cost that the input
// plans' own costs do not enter: they depend on the cardinalities alone, so
// the plan generator computes them once for all outer plans of one
// cardinality and prices each plan with Cost.
type NLJNTerms struct {
	cpu, io, out float64
}

// NLJNTerms prices the cardinality-dependent work of a nested-loops join:
// the outer is consumed once and the inner re-evaluated per block of outer
// rows. As commercial cost models do, the formula searches a small space of
// block sizes (block-nested-loops buffering) and keeps the cheapest, pricing
// with the buffer model only the candidates that can still win.
func (c *Config) NLJNTerms(m *HitMemo, outerRows, innerRows, outRows float64) NLJNTerms {
	or := c.perNode(outerRows)
	ir := c.perNode(innerRows)
	innerPages := pagesOf(ir)
	// The inner is re-read once per block of buffered outer rows; larger
	// blocks cost buffer space (worse hit ratios for the inner pages). Each
	// block size's floor is its I/O at hitCeil, written in the formula's own
	// operator order so that rounding keeps it at or under the real term.
	var passes, floor [len(nljnBlocks)]float64
	for i, block := range nljnBlocks {
		passes[i] = math.Ceil(math.Max(or, 1) / block)
		floor[i] = passes[i]*innerPages*(1-hitCeil)*ioPage/8 + block*cpuRow/8
	}
	bestIO := math.Inf(1)
	for i := cheapest(floor[:], bestIO); i >= 0; i = cheapest(floor[:], bestIO) {
		floor[i] = math.Inf(1)
		block := nljnBlocks[i]
		hit := m.hitRatio(innerPages + block/rowsPerPage)
		io := passes[i]*innerPages*(1-hit)*ioPage/8 + block*cpuRow/8
		if io < bestIO {
			bestIO = io
		}
	}
	return NLJNTerms{
		// Join-condition evaluation is quadratic regardless of blocking.
		cpu: or * ir * cpuCompare,
		io:  bestIO,
		out: c.perNode(outRows) * cpuRow / 4,
	}
}

// Cost returns the cost of the nested-loops join over inputs of the given
// costs. The terms are added in a fixed order, so a plan costs the same
// whether its terms were computed for it or shared.
func (t NLJNTerms) Cost(outerCost, innerCost float64) float64 {
	return outerCost + innerCost + t.cpu + t.io + t.out
}

// NLJNCost returns the cost of one nested-loops join.
func (c *Config) NLJNCost(m *HitMemo, outerCost, outerRows, innerCost, innerRows, outRows float64) float64 {
	return c.NLJNTerms(m, outerRows, innerRows, outRows).Cost(outerCost, innerCost)
}

// MGJNCost returns the cost of the merge phase of a sort-merge join; input
// sort enforcers are costed separately via SortCost. The merge model
// accounts for duplicate-driven rescans of the inner: the expected group
// width on each side follows from the output cardinality, and wide groups
// force the merge cursor to back up.
func (c *Config) MGJNCost(outerCost, outerRows, innerCost, innerRows, outRows float64) float64 {
	or, ir := c.perNode(outerRows), c.perNode(innerRows)
	merge := (or + ir) * cpuCompare * 2
	// Expected matches per outer row; each extra match re-reads buffered
	// inner tuples.
	matches := c.perNode(outRows) / math.Max(or, 1)
	rescan := or * math.Max(matches-1, 0) * cpuCompare
	backup := math.Min(math.Sqrt(math.Max(matches, 0)), 8) * ir * cpuCompare / 16
	return outerCost + innerCost + merge + rescan + backup + c.perNode(outRows)*cpuRow/4
}

// hsjnLog2 and hsjnLn hold log2(fanout+1) and ln(fanout+1) for the eight
// grace-partitioning fan-outs HSJNCost tries (1, 2, … 128), from the functions
// its formula names: indexing them yields the bits a call per costing did.
var hsjnLog2, hsjnLn [8]float64

func init() {
	for i := range hsjnLog2 {
		hsjnLog2[i] = math.Log2(float64(int(1)<<i) + 1)
		hsjnLn[i] = math.Log(float64(int(1)<<i) + 1)
	}
}

// HSJNCost returns the cost of a hash join building on the inner and
// probing with the outer. Like commercial hash-join cost models, it
// searches a small space of grace-partitioning fanouts, picking the
// cheapest combination of spill I/O and per-bucket probe work and pricing
// with the buffer model only the fan-outs that can still win.
func (c *Config) HSJNCost(m *HitMemo, outerCost, outerRows, innerCost, innerRows, outRows float64) float64 {
	or, ir := c.perNode(outerRows), c.perNode(innerRows)
	buildPages := pagesOf(ir)
	// Spill and probe work do not depend on the buffer model. Each fan-out's
	// floor is its cost with the build side at hitCeil, in the formula's own
	// operator order; that is a floor only while the build term grows with
	// 1-hit, so a negative or NaN inner floors every fan-out at -Inf.
	var probe, spill, floor [len(hsjnLog2)]float64
	for i := range floor {
		fanout := float64(int(1) << i)
		partPages := buildPages / fanout
		if partPages > bufferPages {
			// Recursive partitioning: both sides rewritten once per level.
			levels := math.Ceil(math.Log(partPages/bufferPages)/hsjnLn[i]) + 1
			spill[i] = (pagesOf(or) + buildPages) * 2 * ioPage * levels
		} else if fanout > 1 {
			spill[i] = (pagesOf(or) + buildPages) * 2 * ioPage
		}
		probe[i] = or*cpuHash + or*hsjnLog2[i]*cpuCompare/4
		floor[i] = math.Inf(-1)
		if ir >= 0 {
			floor[i] = ir*cpuHash*2 + ir*(1-hitCeil)*cpuHash/2 + probe[i] + spill[i]
		}
	}
	best := math.Inf(1)
	for i := cheapest(floor[:], best); i >= 0; i = cheapest(floor[:], best) {
		floor[i] = math.Inf(1)
		hit := m.hitRatio(buildPages / float64(int(1)<<i))
		build := ir*cpuHash*2 + ir*(1-hit)*cpuHash/2
		if t := build + probe[i] + spill[i]; t < best {
			best = t
		}
	}
	return outerCost + innerCost + best + c.perNode(outRows)*cpuRow/4
}

// RepartitionCost returns the cost of rehashing rows across nodes — the
// enforcer of the partition property. In the serial configuration it is
// never used (and would be free).
func (c *Config) RepartitionCost(rows float64) float64 {
	if c.nodes() <= 1 {
		return 0
	}
	r := c.perNode(rows)
	return r*cpuHash + r*commRow*(1-1/c.nodes())
}

// cpuExpensive is the per-row, per-predicate cost of a user-defined
// expensive predicate (a UDF call) — orders of magnitude above a plain
// comparison, which is what makes deferring them past joins attractive.
const cpuExpensive = 5_000

// ExpensivePredCost returns the cost of evaluating n expensive predicates
// over rows.
func (c *Config) ExpensivePredCost(rows float64, n int) float64 {
	return c.perNode(rows) * cpuExpensive * float64(n)
}

// GroupByCost returns the cost of aggregation over rows into groups: hash
// or sort based; inputOrdered selects the cheap streaming variant.
func (c *Config) GroupByCost(rows, groups float64, inputOrdered bool) float64 {
	r := c.perNode(rows)
	if inputOrdered {
		return r * cpuCompare
	}
	return r*cpuHash + math.Min(c.perNode(groups), r)*cpuRow/4
}
