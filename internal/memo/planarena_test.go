package memo

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cote/internal/bitset"
	"cote/internal/props"
	"cote/internal/query"
)

// planStep is one insertion of a plan-arena sequence: which entry, which plan.
// Entry i is the one of table set i+1, as fillAll creates them.
type planStep struct {
	entry int
	p     *Plan
}

func (s planStep) of(m *Memo) *Entry { return m.Entry(bitset.Set(s.entry + 1)) }

// planSequence draws n random insertions over the first entries. Costs
// repeat and orders range over every single column of the block, so inserts
// are rejected, prune earlier plans, and leave some entries with more
// incomparable plans than several windows hold.
func planSequence(rng *rand.Rand, blk *query.Block, entries, n int) []planStep {
	steps := make([]planStep, n)
	for i := range steps {
		p := &Plan{Op: OpTableScan, Cost: float64(rng.Intn(50) + 1), Pipelined: rng.Intn(2) == 0}
		if k := rng.Intn(len(blk.Columns) + 1); k > 0 {
			p.Order = props.OrderOn(query.ColID(k - 1))
		}
		// A skewed entry choice: the first entries grow long lists.
		steps[i] = planStep{entry: min(rng.Intn(entries), rng.Intn(entries)), p: p}
	}
	return steps
}

// appendInsert is InsertPlan over a plain slice grown by append: the oracle
// the arena-backed lists must match plan for plan.
func appendInsert(m *Memo, e *Entry, plans []*Plan, p *Plan) ([]*Plan, bool) {
	for _, have := range plans {
		if dominates(have, p, &e.Equiv, m) {
			return plans, false
		}
	}
	var kept []*Plan
	for _, have := range plans {
		if !dominates(p, have, &e.Equiv, m) {
			kept = append(kept, have)
		}
	}
	return append(kept, p), true
}

// fillPlans resets m for blk, creates its entries and runs the insertions.
func fillPlans(m *Memo, blk *query.Block, steps []planStep) {
	fillAll(m, blk)
	m.PipelineMatters = true
	for _, s := range steps {
		m.InsertPlan(s.of(m), s.p)
	}
}

// TestPlanArenaMatchesAppend runs random insert/prune sequences, interleaved
// over many entries, through the arena-backed plan lists and through plain
// append: every insert must answer the same and every list must hold the
// same plans in the same order.
func TestPlanArenaMatchesAppend(t *testing.T) {
	blk := arenaBlock(t, 6, 12)
	m := New(0)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fillAll(m, blk)
		m.PipelineMatters = true
		want := make([][]*Plan, 24)
		for i, s := range planSequence(rng, blk, len(want), 1500) {
			e := s.of(m)
			var ok bool
			want[s.entry], ok = appendInsert(m, e, want[s.entry], s.p)
			if got := m.InsertPlan(e, s.p); got != ok {
				t.Fatalf("seed %d step %d: InsertPlan = %v, append oracle %v", seed, i, got, ok)
			}
		}
		longest := 0
		for i := range want {
			e := planStep{entry: i}.of(m)
			if !slices.Equal(e.Plans, want[i]) {
				t.Fatalf("seed %d entry %v: %d plans %v, append oracle %d %v", seed, e.Tables, len(e.Plans), e.Plans, len(want[i]), want[i])
			}
			longest = max(longest, len(e.Plans))
		}
		if longest <= 2*planWindow {
			t.Fatalf("seed %d: longest list %d plans, want more than two windows' worth", seed, longest)
		}
	}
}

// TestPlanArenaWindowsDoNotOverlap fills a MEMO and maps every slot of every
// entry's plan window, spare capacity included: a slot reachable from two
// entries would let one entry's append overwrite the other's plans.
func TestPlanArenaWindowsDoNotOverlap(t *testing.T) {
	blk := arenaBlock(t, 6, 12)
	m := New(0)
	fillPlans(m, blk, planSequence(rand.New(rand.NewSource(3)), blk, 40, 2000))
	owner := map[**Plan]*Entry{}
	for _, e := range m.Entries() {
		w := e.Plans[:cap(e.Plans)]
		for i := range w {
			if o := owner[&w[i]]; o != nil {
				t.Fatalf("entries %v and %v share plan slot %p", o.Tables, e.Tables, &w[i])
			}
			owner[&w[i]] = e
		}
	}
}

// TestPlanArenaResetPinsNoPlan: after Reset the arena keeps its chunks for
// the next run but no pointer into the finished run's plan trees, so a pooled
// MEMO pins none.
func TestPlanArenaResetPinsNoPlan(t *testing.T) {
	blk := arenaBlock(t, 6, 12)
	m := New(0)
	fillPlans(m, blk, planSequence(rand.New(rand.NewSource(5)), blk, 40, 2000))
	if len(m.plans.chunks) < 2 {
		t.Fatalf("%d plan-arena chunks, want a fill that spans several", len(m.plans.chunks))
	}
	m.Reset(blk.NumTables())
	for i, c := range m.plans.chunks {
		for j, p := range c {
			if p != nil {
				t.Fatalf("after Reset, chunk %d slot %d still holds plan %v", i, j, p)
			}
		}
	}
}

// TestPlanArenaSteadyStateAllocatesNothing: refilling a warm MEMO with the
// same plans allocates nothing — no entry, equivalence or plan-list window.
func TestPlanArenaSteadyStateAllocatesNothing(t *testing.T) {
	blk := arenaBlock(t, 6, 12)
	steps := planSequence(rand.New(rand.NewSource(9)), blk, 40, 2000)
	m := New(0)
	fillPlans(m, blk, steps)
	if avg := testing.AllocsPerRun(10, func() { fillPlans(m, blk, steps) }); avg != 0 {
		t.Fatalf("refilling a warm MEMO with plans = %.0f allocs, want 0", avg)
	}
}

// TestPlanArenaPooledMemos cycles MEMOs holding plans through a shared pool
// from several goroutines, each checking its lists against the append
// oracle; a chunk reachable from two live MEMOs trips the race detector or
// the comparison.
func TestPlanArenaPooledMemos(t *testing.T) {
	blocks := []*query.Block{arenaBlock(t, 4, 5), arenaBlock(t, 5, 9), arenaBlock(t, 6, 6)}
	pool := sync.Pool{New: func() any { return New(0) }}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for round := 0; round < 20; round++ {
				m := pool.Get().(*Memo)
				blk := blocks[rng.Intn(len(blocks))]
				steps := planSequence(rng, blk, 12, 300)
				fillPlans(m, blk, steps)
				if err := checkAgainstAppend(m, steps); err != nil {
					t.Errorf("goroutine %d round %d: %v (aliased arena?)", id, round, err)
					return
				}
				pool.Put(m)
			}
		}(g)
	}
	wg.Wait()
}

// checkAgainstAppend replays steps through the append oracle over m's
// entries and compares the lists m holds.
func checkAgainstAppend(m *Memo, steps []planStep) error {
	want := map[*Entry][]*Plan{}
	for _, s := range steps {
		e := s.of(m)
		want[e], _ = appendInsert(m, e, want[e], s.p)
	}
	for _, e := range m.Entries() {
		if !slices.Equal(e.Plans, want[e]) {
			return fmt.Errorf("entry %v holds %d plans, append oracle %d", e.Tables, len(e.Plans), len(want[e]))
		}
	}
	return nil
}
