package cote_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cote/internal/core"
	"cote/internal/experiments"
	"cote/internal/opt"
	"cote/internal/testutil"
	"cote/internal/workload"
)

var updateMemGolden = flag.Bool("update-golden", false, "rewrite testdata/memory_golden.txt from the code under test")

const memGoldenPath = "testdata/memory_golden.txt"

// TestMemoryGolden pins the measured memory of every linear, star, real1,
// real2 and TPC-H query at the inner2 and high levels, serial and 4-node:
// the compile's durable and total peak bytes and the estimate's measured
// durable bytes. The record was made before the MEMO reported its own bytes
// (when every entry and plan charged a shared accountant); regenerate it
// with -update-golden only for a change that means to move these figures.
func TestMemoryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("memory golden skipped in -short")
	}
	if testutil.RaceEnabled {
		t.Skip("memory golden skipped under -race: every run is serial and deterministic, and the 4-node linear compiles at high take minutes there")
	}
	var got bytes.Buffer
	for _, nodes := range []int{1, 4} {
		for _, w := range []*workload.Workload{workload.Linear(nodes), workload.Star(nodes), workload.Real1(nodes), workload.Real2(nodes), workload.TPCH(nodes)} {
			cfg := experiments.ConfigFor(w)
			for _, level := range []opt.Level{opt.LevelHighInner2, opt.LevelHigh} {
				for _, q := range w.Queries {
					res, err := opt.OptimizeCtx(context.Background(), q.Block, opt.Options{Level: level, Config: cfg})
					if err != nil {
						t.Fatalf("%s %s at %v: %v", w.Name, q.Name, level, err)
					}
					est, err := core.EstimatePlans(q.Block, core.Options{Level: level, Config: cfg})
					if err != nil {
						t.Fatalf("%s %s at %v: %v", w.Name, q.Name, level, err)
					}
					fmt.Fprintf(&got, "%s %s %v durable %d peak %d measured %d\n", w.Name, q.Name, level,
						res.Resources.DurablePeakBytes, res.Resources.PeakBytes, est.MeasuredPeakBytes)
					res.Release()
				}
			}
		}
	}
	if *updateMemGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(memGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(memGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
