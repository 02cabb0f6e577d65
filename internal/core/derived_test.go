package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/query"
	"cote/internal/workload"
)

// A view's or subquery's output cardinality is per-run state: every entry
// point processes a query's blocks children-first and hands each child's
// output to its parent's derived table through the estimator, never through
// the block. These tests pin the consequences — EstimateLevels sees the same
// derived cardinalities as EstimatePlans, no entry point's answer depends on
// what ran on the block before, and one block serves concurrent runs.

// allLevels are the DP levels LevelHigh subsumes.
var allLevels = []opt.Level{opt.LevelMediumLeftDeep, opt.LevelMediumZigZag, opt.LevelHighInner2, opt.LevelHigh}

// entryPoint runs one public entry point on a block and renders all it
// answers — wall times zeroed — as a string.
type entryPoint struct {
	name string
	run  func(*query.Block) (string, error)
}

func entryPoints() []entryPoint {
	return []entryPoint{
		{"EstimatePlans", func(b *query.Block) (string, error) {
			est, err := EstimatePlans(b, Options{Level: opt.LevelHigh})
			if err != nil {
				return "", err
			}
			est.Elapsed = 0
			js, err := json.Marshal(est)
			return string(js), err
		}},
		{"EstimateLevels", func(b *query.Block) (string, error) {
			ests, err := EstimateLevels(b, allLevels, Options{})
			if err != nil {
				return "", err
			}
			for i := range ests {
				ests[i].Elapsed = 0
			}
			js, err := json.Marshal(ests)
			return string(js), err
		}},
		{"Optimize", func(b *query.Block) (string, error) {
			res, err := opt.Optimize(b, opt.Options{Level: opt.LevelHighInner2})
			if err != nil {
				return "", err
			}
			defer res.Release()
			return planString(res), nil
		}},
		{"MOP", func(b *query.Block) (string, error) {
			res, dec, err := (&MOP{Models: staticProvider{m: mopFastModel()}}).Run(b)
			if err != nil {
				return "", err
			}
			defer res.Release()
			dec.TotalElapsed = 0
			return fmt.Sprintf("%+v %s", *dec, planString(res)), nil
		}},
	}
}

// planString renders a compile's final plan with its cost and card bits.
func planString(res *opt.Result) string {
	return fmt.Sprintf("cost %x card %x %v", math.Float64bits(res.Plan.Cost), math.Float64bits(res.Plan.Card), res.Plan)
}

// derivedWorkloads are the workloads with multi-block queries, each built
// afresh per call.
func derivedWorkloads() []func() *workload.Workload {
	return []func() *workload.Workload{
		func() *workload.Workload { return workload.Real1(1) },
		func() *workload.Workload { return workload.Real2(1) },
		func() *workload.Workload { return workload.TPCH(1) },
		func() *workload.Workload { return workload.Random(1, 40, 9, 1) },
	}
}

// TestEstimateLevelsMatchesEstimatePlans requires the single-pass estimate of
// the top level to be the top level's estimate, every field but Elapsed: the
// pass must export each child block's output cardinality to its parent as
// EstimatePlans does, and its forked counters must not disturb the one that
// propagates.
func TestEstimateLevelsMatchesEstimatePlans(t *testing.T) {
	for _, mk := range derivedWorkloads() {
		levelsWl := mk() // fresh blocks for EstimateLevels
		for i, q := range mk().Queries {
			opts := Options{Level: opt.LevelHigh, Model: mopFastModel()}
			est, err := EstimatePlans(q.Block, opts)
			if err != nil {
				t.Fatal(err)
			}
			ests, err := EstimateLevels(levelsWl.Queries[i].Block, allLevels, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := ests[len(allLevels)-1]
			got.Elapsed, est.Elapsed = 0, 0
			if got != *est {
				t.Errorf("%s: EstimateLevels %+v\n EstimatePlans %+v", q.Name, got, *est)
			}
		}
	}
}

// TestEntryPointsIgnoreHistory runs every other entry point on a block before
// each one, and requires the same answer as on a fresh block.
func TestEntryPointsIgnoreHistory(t *testing.T) {
	entries := entryPoints()
	for _, mk := range derivedWorkloads() {
		for k, e := range entries {
			fresh, used := mk(), mk()
			for i, q := range fresh.Queries {
				want, err := e.run(q.Block)
				if err != nil {
					t.Fatal(err)
				}
				blk := used.Queries[i].Block
				for j, other := range entries {
					if j != k {
						if _, err := other.run(blk); err != nil {
							t.Fatal(err)
						}
					}
				}
				got, err := e.run(blk)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s %s after the other entry points:\n got  %s\n want %s", q.Name, e.name, got, want)
				}
			}
		}
	}
}

// TestSharedBlockConcurrent runs every entry point on one shared pair of
// multi-block queries — real2's three-view headline and a correlated
// subquery — from eight goroutines, each in its own call order. Every
// answer must equal the serial reference; under -race this also checks that
// nothing writes the blocks.
func TestSharedBlockConcurrent(t *testing.T) {
	qs := workload.Real2(1).Queries
	blocks := []*query.Block{qs[7].Block, qs[9].Block} // real2_s_08, real2_s_10
	entries := entryPoints()
	want := make([][]string, len(blocks))
	for i, b := range blocks {
		if len(b.Blocks()) < 2 {
			t.Fatalf("%s is a single block", b.Name)
		}
		for _, e := range entries {
			out, err := e.run(b)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], out)
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutine g starts at entry g/2, walking forwards when g is
			// even and backwards when odd: eight distinct call orders.
			n := len(entries)
			for step := 0; step < n; step++ {
				k := (g/2 + step) % n
				if g%2 == 1 {
					k = (g/2 - step + n) % n
				}
				for i, b := range blocks {
					got, err := entries[k].run(b)
					if err != nil || got != want[i][k] {
						t.Errorf("goroutine %d: %s on %s: err %v\n got  %s\n want %s", g, entries[k].name, b.Name, err, got, want[i][k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEstimateLevelsChargesMemory requires the single-pass estimate to
// charge each block as EstimatePlans does — the property values its counter
// grew and its scratch — so that the top level's durable peak is the
// EstimatePlans one and its total peak no smaller, and the top level's
// Estimate, Elapsed aside, is EstimatePlans'.
func TestEstimateLevelsChargesMemory(t *testing.T) {
	for _, w := range []*workload.Workload{
		workload.Linear(1), workload.Star(1), workload.Real1(1),
		workload.Real2(1), workload.TPCH(1), workload.Random(1, 40, 9, 1),
	} {
		for _, q := range w.Queries {
			plans, levels := optctx.New(context.Background()), optctx.New(context.Background())
			est, err := EstimatePlans(q.Block, Options{Level: opt.LevelHigh, Exec: plans})
			if err != nil {
				t.Fatal(err)
			}
			ests, err := EstimateLevels(q.Block, allLevels, Options{Exec: levels})
			if err != nil {
				t.Fatal(err)
			}
			got := ests[len(allLevels)-1]
			got.Elapsed, est.Elapsed = 0, 0
			if got != *est {
				t.Errorf("%s: EstimateLevels %+v\n EstimatePlans %+v", q.Name, got, *est)
			}
			p, l := plans.Resources(), levels.Resources()
			if l.DurablePeakBytes != p.DurablePeakBytes || l.PeakBytes < p.PeakBytes {
				t.Errorf("%s: EstimateLevels peaks %d durable / %d total, EstimatePlans %d / %d",
					q.Name, l.DurablePeakBytes, l.PeakBytes, p.DurablePeakBytes, p.PeakBytes)
			}
		}
	}
}
