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
// pays the twelve-step iteration once.
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

// A HitMemo holds 256 sets of hitMemoWays entries: 1024 entries in
// 16 KiB, one 64-byte set per lookup. On the experiment workloads it answers
// 97-99.99% of the lookups that remain once nested-loops costing has shared
// its terms, and on the benchmark's compile workload 80.5%, all but the
// first sight of each argument. The same 1024 entries direct-mapped answer
// 95-99.6% and 71%; it takes 4096 direct-mapped entries to match.
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
// block sizes (block-nested-loops buffering) and prices each candidate with
// the buffer model, keeping the cheapest.
func (c *Config) NLJNTerms(m *HitMemo, outerRows, innerRows, outRows float64) NLJNTerms {
	or := c.perNode(outerRows)
	ir := c.perNode(innerRows)
	innerPages := pagesOf(ir)
	// The inner is re-read once per block of buffered outer rows; larger
	// blocks cost buffer space (worse hit ratios for the inner pages).
	bestIO := math.Inf(1)
	for block := 1.0; block <= 4096; block *= 4 {
		passes := math.Ceil(math.Max(or, 1) / block)
		hit := m.hitRatio(innerPages + block/rowsPerPage)
		io := passes*innerPages*(1-hit)*ioPage/8 + block*cpuRow/8
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
// cheapest combination of spill I/O and per-bucket probe work.
func (c *Config) HSJNCost(m *HitMemo, outerCost, outerRows, innerCost, innerRows, outRows float64) float64 {
	or, ir := c.perNode(outerRows), c.perNode(innerRows)
	buildPages := pagesOf(ir)
	best := math.Inf(1)
	for i, fanout := 0, 1.0; i < len(hsjnLog2); i, fanout = i+1, fanout*2 {
		partPages := buildPages / fanout
		spill := 0.0
		if partPages > bufferPages {
			// Recursive partitioning: both sides rewritten once per level.
			levels := math.Ceil(math.Log(partPages/bufferPages)/hsjnLn[i]) + 1
			spill = (pagesOf(or) + buildPages) * 2 * ioPage * levels
		} else if fanout > 1 {
			spill = (pagesOf(or) + buildPages) * 2 * ioPage
		}
		hit := m.hitRatio(partPages)
		build := ir*cpuHash*2 + ir*(1-hit)*cpuHash/2
		probe := or*cpuHash + or*hsjnLog2[i]*cpuCompare/4
		if t := build + probe + spill; t < best {
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
