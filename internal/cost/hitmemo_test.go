package cost

import (
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are the cost formulas as they stood before the memo, the
// NLJNTerms split and the floors of the join searches: every buffer-model
// point evaluated directly, every block size and fan-out priced, every term
// computed per call. They are the oracle the memoized formulas must match
// bit for bit.

func refScanCost(c *Config, tableRows, outRows float64) float64 {
	rows := c.perNode(tableRows)
	pages := pagesOf(rows)
	hit := bufferHitRatio(pages)
	io := pages * (1 - hit) * ioPage
	cpu := rows*cpuRow + c.perNode(outRows)*cpuRow/4
	return io + cpu + seekCost
}

func refIndexScanCost(c *Config, tableRows, matchRows float64) float64 {
	rows := c.perNode(tableRows)
	match := c.perNode(matchRows)
	dataPages := pagesOf(rows)
	touched := yao(rows, dataPages, match)
	hit := bufferHitRatio(touched)
	descent := math.Log2(math.Max(rows, 2)) * cpuCompare
	io := touched * (1 - hit) * (ioPage + seekCost/4)
	return descent + io + match*cpuRow
}

func refNLJNCost(c *Config, outerCost, outerRows, innerCost, innerRows, outRows float64) float64 {
	or := c.perNode(outerRows)
	ir := c.perNode(innerRows)
	innerPages := pagesOf(ir)
	cpu := or * ir * cpuCompare
	bestIO := math.Inf(1)
	for block := 1.0; block <= 4096; block *= 4 {
		passes := math.Ceil(math.Max(or, 1) / block)
		hit := bufferHitRatio(innerPages + block/rowsPerPage)
		io := passes*innerPages*(1-hit)*ioPage/8 + block*cpuRow/8
		if io < bestIO {
			bestIO = io
		}
	}
	return outerCost + innerCost + cpu + bestIO + c.perNode(outRows)*cpuRow/4
}

func refHSJNCost(c *Config, outerCost, outerRows, innerCost, innerRows, outRows float64) float64 {
	or, ir := c.perNode(outerRows), c.perNode(innerRows)
	buildPages := pagesOf(ir)
	best := math.Inf(1)
	for fanout := 1.0; fanout <= 128; fanout *= 2 {
		partPages := buildPages / fanout
		spill := 0.0
		if partPages > bufferPages {
			levels := math.Ceil(math.Log(partPages/bufferPages)/math.Log(fanout+1)) + 1
			spill = (pagesOf(or) + buildPages) * 2 * ioPage * levels
		} else if fanout > 1 {
			spill = (pagesOf(or) + buildPages) * 2 * ioPage
		}
		hit := bufferHitRatio(partPages)
		build := ir*cpuHash*2 + ir*(1-hit)*cpuHash/2
		probe := or*cpuHash + or*math.Log2(fanout+1)*cpuCompare/4
		if t := build + probe + spill; t < best {
			best = t
		}
	}
	return outerCost + innerCost + best + c.perNode(outRows)*cpuRow/4
}

// sameBits is float equality that also holds NaN equal to the same NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkAgainstRef compares the four memoized formulas with the oracle on one
// argument tuple.
func checkAgainstRef(t *testing.T, c *Config, m *HitMemo, oc, or, ic, ir, out float64) {
	t.Helper()
	if got, want := c.ScanCost(m, or, ir), refScanCost(c, or, ir); !sameBits(got, want) {
		t.Fatalf("nodes=%d ScanCost(%v, %v) = %v, direct %v", c.Nodes, or, ir, got, want)
	}
	if got, want := c.IndexScanCost(m, or, ir), refIndexScanCost(c, or, ir); !sameBits(got, want) {
		t.Fatalf("nodes=%d IndexScanCost(%v, %v) = %v, direct %v", c.Nodes, or, ir, got, want)
	}
	if got, want := c.NLJNCost(m, oc, or, ic, ir, out), refNLJNCost(c, oc, or, ic, ir, out); !sameBits(got, want) {
		t.Fatalf("nodes=%d NLJNCost(%v, %v, %v, %v, %v) = %v, direct %v", c.Nodes, oc, or, ic, ir, out, got, want)
	}
	if got, want := c.HSJNCost(m, oc, or, ic, ir, out), refHSJNCost(c, oc, or, ic, ir, out); !sameBits(got, want) {
		t.Fatalf("nodes=%d HSJNCost(%v, %v, %v, %v, %v) = %v, direct %v", c.Nodes, oc, or, ic, ir, out, got, want)
	}
}

// held returns how many arguments a memo holds. On a fresh memo that is the
// number of buffer-model points the calls since it was made evaluated.
func held(m *HitMemo) int {
	n := 0
	for i := range m.sets {
		for _, e := range m.sets[i] {
			if e.key != 0 {
				n++
			}
		}
	}
	return n
}

// One memo serves 4000 random argument tuples per configuration — each tuple
// touches two buffer-model points in the scans and up to fifteen in the join
// searches, more distinct keys than the memo has entries, so lookups evict
// other keys — and then the same tuples again, which finds whatever an
// eviction left behind. The tuples must reach both uses of HSJNCost's
// tabulated logarithms: the probe term of every fan-out, and the recursion
// depth of a build side that spills even when partitioned 128 ways. They
// must also reach both ends of the join searches, counted on a fresh memo
// per search: searches whose floors ruled candidates out, and searches that
// had to price every candidate.
func TestMemoizedCostsMatchDirect(t *testing.T) {
	m := new(HitMemo)
	for _, c := range []*Config{Serial, Parallel4} {
		rng := rand.New(rand.NewSource(int64(c.Nodes)))
		logUniform := func(lo, hi float64) float64 {
			return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
		}
		rows := func() float64 {
			// Fractional like real cardinalities.
			return logUniform(1, 1e9)
		}
		type tuple struct{ oc, or, ic, ir, out float64 }
		tuples := make([]tuple, 4000)
		spills, fits := 0, 0
		for i := range tuples {
			// Outers go down to the estimator's cardinality floor: an outer
			// of at most one row per node re-reads the inner once at every
			// block size, which is where the block search prices all seven.
			tuples[i] = tuple{rows(), logUniform(0.01, 1e9), rows(), rows(), rows()}
			if pagesOf(c.perNode(tuples[i].ir))/128 > bufferPages {
				spills++
			} else if pagesOf(c.perNode(tuples[i].ir)) <= bufferPages {
				fits++
			}
		}
		if spills < 200 || fits < 200 {
			t.Fatalf("nodes=%d: %d tuples spill at every fan-out and %d at none, want 200 of each", c.Nodes, spills, fits)
		}
		pruned, full := 0, 0
		tally := func(priced, candidates int) {
			if priced < candidates {
				pruned++
			} else {
				full++
			}
		}
		for _, a := range tuples {
			var nl, hs HitMemo
			c.NLJNCost(&nl, a.oc, a.or, a.ic, a.ir, a.out)
			c.HSJNCost(&hs, a.oc, a.or, a.ic, a.ir, a.out)
			tally(held(&nl), len(nljnBlocks))
			tally(held(&hs), len(hsjnLog2))
		}
		if pruned < 200 || full < 200 {
			t.Fatalf("nodes=%d: %d join searches ruled candidates out and %d priced them all, want 200 of each", c.Nodes, pruned, full)
		}
		for pass := 0; pass < 2; pass++ {
			for _, a := range tuples {
				checkAgainstRef(t, c, m, a.oc, a.or, a.ic, a.ir, a.out)
			}
		}
	}
}

// A build side that fits the buffer pool spills at no fan-out but the first,
// and every other fan-out's spill I/O alone exceeds what the buffer model can
// add to the first's cost, so the search prices one point.
func TestHSJNInBufferBuildPricesOneFanOut(t *testing.T) {
	for _, innerRows := range []float64{1, 40 * 1000.5, 40 * bufferPages} {
		var m HitMemo
		Serial.HSJNCost(&m, 1, 1e6, 1, innerRows, 1e6)
		if n := held(&m); n != 1 {
			t.Fatalf("inner of %v rows (%v pages): the memo holds %d keys after one HSJNCost, want 1", innerRows, pagesOf(innerRows), n)
		}
	}
}

// The tables HSJNCost indexes hold what the functions in its formula return.
func TestHSJNLogTables(t *testing.T) {
	i := 0
	for fanout := 1.0; fanout <= 128; fanout *= 2 {
		if !sameBits(hsjnLog2[i], math.Log2(fanout+1)) || !sameBits(hsjnLn[i], math.Log(fanout+1)) {
			t.Fatalf("fan-out %v: tables hold %v and %v, want %v and %v", fanout, hsjnLog2[i], hsjnLn[i], math.Log2(fanout+1), math.Log(fanout+1))
		}
		i++
	}
	if i != len(hsjnLog2) {
		t.Fatalf("the formula's loop tries %d fan-outs, the tables hold %d", i, len(hsjnLog2))
	}
}

// Arguments at the edges of the domain: empty and negative rowsets (pages <=
// 0 answers before the table), infinities and NaN, each on a fresh memo and
// on one already holding other keys.
func TestMemoizedCostsMatchDirectOnEdgeArguments(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), -1, -1e12, 0.5, 1, 39, 40, 41,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	warm := new(HitMemo)
	for p := 1.0; p < 3000; p++ {
		warm.hitRatio(p)
	}
	for _, c := range []*Config{Serial, Parallel4} {
		for _, m := range []*HitMemo{new(HitMemo), warm} {
			for _, or := range edges {
				for _, ir := range edges {
					checkAgainstRef(t, c, m, 7, or, 11, ir, 13)
				}
			}
		}
	}
}

// Eight times as many keys as the memo has entries, ascending, descending
// and ascending again: every entry is evicted and re-evaluated many times
// over, and in the descending pass the most recent keys are found at every
// depth of their sets. A hit must return what the miss path stored, and zero
// — whose bits mark an empty entry — must never be stored.
func TestHitMemoEvictions(t *testing.T) {
	m := new(HitMemo)
	const keys = 8 * hitMemoWays << hitMemoSetBits
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < keys; i++ {
			p := float64(i)
			if pass == 1 {
				p = float64(keys - 1 - i)
			}
			if got, want := m.hitRatio(p), bufferHitRatio(p); !sameBits(got, want) {
				t.Fatalf("pass %d: hitRatio(%v) = %v, direct %v", pass, p, got, want)
			}
		}
	}
	for i := range m.sets {
		for _, e := range m.sets[i] {
			if e.key == 0 {
				t.Fatalf("set %d still has an empty entry after %d keys: %+v", i, keys, m.sets[i])
			}
			if !sameBits(e.hit, bufferHitRatio(math.Float64frombits(e.key))) {
				t.Fatalf("set %d holds %v under key %v", i, e.hit, math.Float64frombits(e.key))
			}
		}
	}
}

// A set keeps its entries in most-recently-used order: with more live keys
// than ways, the key looked up longest ago is the one that goes.
func TestHitMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := new(HitMemo)
	// Five arguments of one set.
	var same []float64
	target := hitMemoSet(math.Float64bits(1))
	for p := 1.0; len(same) < hitMemoWays+1; p++ {
		if hitMemoSet(math.Float64bits(p)) == target {
			same = append(same, p)
		}
	}
	holds := func(p float64) bool {
		for _, e := range m.sets[target] {
			if e.key == math.Float64bits(p) {
				return true
			}
		}
		return false
	}
	for _, p := range same[:hitMemoWays] {
		m.hitRatio(p)
	}
	m.hitRatio(same[0]) // refresh the oldest; same[1] is now least recent
	m.hitRatio(same[hitMemoWays])
	for i, p := range same {
		if want := i != 1; holds(p) != want {
			t.Fatalf("after the eviction, set holds argument %d (%v) = %v, want %v: %+v", i, p, holds(p), want, m.sets[target])
		}
	}
}

var sinkCost float64

// benchJoinCost prices joins over a stream of inner cardinalities. In "hit"
// eight of them repeat, the state of an optimization after its first few
// joins; in "miss" every call brings page counts the memo has not seen (odd
// page counts, so no fan-out of one is a fan-out of another): the price of
// the floors, the buffer-model points they leave to evaluate, and the failed
// lookups.
func benchJoinCost(b *testing.B, costOf func(m *HitMemo, innerRows float64) float64) {
	b.Run("hit", func(b *testing.B) {
		m := new(HitMemo)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkCost = costOf(m, float64(40*(2*(i%8)+1)))
		}
	})
	b.Run("miss", func(b *testing.B) {
		m := new(HitMemo)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkCost = costOf(m, float64(40*(2*i+1)))
		}
	})
}

func BenchmarkNLJNCost(b *testing.B) {
	benchJoinCost(b, func(m *HitMemo, ir float64) float64 {
		return Serial.NLJNCost(m, 1, 1e6, 1, ir, 1e6)
	})
}

func BenchmarkHSJNCost(b *testing.B) {
	benchJoinCost(b, func(m *HitMemo, ir float64) float64 {
		return Serial.HSJNCost(m, 1, 1e6, 1, ir, 1e6)
	})
}
