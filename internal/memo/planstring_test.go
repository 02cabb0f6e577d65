package memo_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"cote/internal/bitset"
	"cote/internal/cost"
	"cote/internal/memo"
	"cote/internal/opt"
	"cote/internal/testutil"
	"cote/internal/workload"
)

// sprintfPlan is Plan.String as it was written before it appended into one
// buffer — one fmt.Sprintf per node, the set rendered through a
// strings.Builder — kept as the oracle the append form must match byte for
// byte.
func sprintfPlan(p *memo.Plan) string {
	if p == nil {
		return "<nil>"
	}
	switch {
	case p.Left == nil && p.Right == nil:
		return fmt.Sprintf("%s%s", p.Op, builderSet(p.Tables))
	case p.Right == nil:
		return fmt.Sprintf("%s(%s)", p.Op, sprintfPlan(p.Left))
	default:
		return fmt.Sprintf("%s(%s,%s)", p.Op, sprintfPlan(p.Left), sprintfPlan(p.Right))
	}
}

func builderSet(s bitset.Set) string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	}
	b.WriteByte('}')
	return b.String()
}

func checkPlanString(t *testing.T, where string, p *memo.Plan) {
	t.Helper()
	want := sprintfPlan(p)
	if got := p.String(); got != want {
		t.Fatalf("%s: String\n got  %s\n want %s", where, got, want)
	}
	if got := string(p.AppendString([]byte("x="))); got != "x="+want {
		t.Fatalf("%s: AppendString after a prefix\n got  %s\n want x=%s", where, got, want)
	}
}

// Every plan of every workload query — the final plan and every plan kept in
// every block's MEMO — renders as the oracle does, at two levels. -race and
// -short skip the synthetic workloads: their 1.1 M plans take seconds even
// without the detector.
func TestPlanStringMatchesSprintf(t *testing.T) {
	workloads := []*workload.Workload{
		workload.Random(42, 12, 10, 1), workload.Random(42, 12, 10, 4),
		workload.Real1(1), workload.Real1(4),
		workload.Real2(1), workload.Real2(4),
		workload.TPCH(1), workload.TPCH(4),
	}
	if !testutil.RaceEnabled && !testing.Short() {
		workloads = append(workloads, workload.Linear(1), workload.Linear(4), workload.Star(1), workload.Star(4))
	}
	plans := 0
	for _, w := range workloads {
		cfg := cost.Serial
		if strings.HasSuffix(w.Name, "_p") {
			cfg = cost.Parallel4
		}
		for _, level := range []opt.Level{opt.LevelHighInner2, opt.LevelMediumLeftDeep} {
			for _, q := range w.Queries {
				res, err := opt.Optimize(q.Block, opt.Options{Level: level, Config: cfg})
				if err != nil {
					t.Fatalf("%s at %v: %v", q.Name, level, err)
				}
				checkPlanString(t, q.Name, res.Plan)
				for _, b := range res.Blocks {
					for _, e := range b.Memo.Entries() {
						for _, p := range e.Plans {
							checkPlanString(t, q.Name, p)
							plans++
						}
					}
				}
				res.Release()
			}
		}
	}
	if plans < 10_000 {
		t.Fatalf("only %d MEMO plans checked", plans)
	}
}

// Random trees reach what no optimizer emits: unknown operators, empty and
// 64-element table sets, a right child without a left one, deep nesting.
func TestPlanStringMatchesSprintfOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tree func(depth int) *memo.Plan
	tree = func(depth int) *memo.Plan {
		if rng.Intn(8) == 0 {
			return nil
		}
		p := &memo.Plan{Op: memo.Operator(rng.Intn(12)), Tables: bitset.Set(rng.Uint64() >> rng.Intn(65))}
		if depth > 0 {
			switch rng.Intn(4) {
			case 1:
				p.Left = tree(depth - 1)
			case 2:
				p.Right = tree(depth - 1)
			case 3:
				p.Left, p.Right = tree(depth-1), tree(depth-1)
			}
		}
		return p
	}
	for i := 0; i < 5_000; i++ {
		checkPlanString(t, fmt.Sprintf("tree %d", i), tree(rng.Intn(10)))
	}
}
