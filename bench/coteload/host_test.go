package main

import (
	"math"
	"testing"
	"time"
)

// The probe's kernel runs in a child process of this binary (TestMain hands
// over to probeMain), a sample times about a tenth of the work it follows,
// and stopping the probe ends the child.
func TestProbeSamplesInChild(t *testing.T) {
	p, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.sample(nil, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != minRounds {
		t.Fatalf("a sample after a millisecond of work timed %d rounds, want %d", len(got), minRounds)
	}
	work := time.Duration(20.5 * nominalAllocUS / probeShare * float64(time.Microsecond))
	if got, err = p.sample(got, work); err != nil {
		t.Fatal(err)
	}
	if len(got) != minRounds+20 {
		t.Fatalf("%d rounds in all, want %d", len(got), minRounds+20)
	}
	for _, us := range got {
		if us <= 0 {
			t.Fatalf("kernel times %v", got)
		}
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if !p.cmd.ProcessState.Exited() {
		t.Fatal("the probe's child is still running")
	}
}

func TestSpeedFactor(t *testing.T) {
	// The lowest and the highest tenth do not count: a round during which
	// the child was descheduled must not move the factor.
	v := []float64{1, 2 * nominalAllocUS, 2 * nominalAllocUS, 2 * nominalAllocUS, 2 * nominalAllocUS,
		2 * nominalAllocUS, 2 * nominalAllocUS, 2 * nominalAllocUS, 2 * nominalAllocUS, 1e9}
	if f := speedFactor(v); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("factor %v, want 0.5", f)
	}
	if f := speedFactor([]float64{nominalAllocUS / 2, nominalAllocUS, 3 * nominalAllocUS / 2}); math.Abs(f-1) > 1e-9 {
		t.Fatalf("factor of three samples %v, want 1 (nothing to trim)", f)
	}
}

func TestWindowPasses(t *testing.T) {
	const rates = "warm_repeat=180,cold_dense=42"
	for _, c := range []struct {
		workload string
		seconds  float64
		want     int
	}{{"warm_repeat", 20, 60}, {"cold_dense", 20, 14}, {"cold_dense", 0.5, 1}} {
		got, err := windowPasses(rates, c.workload, c.seconds)
		if err != nil || got != c.want {
			t.Errorf("%s for %v s: %d passes, %v; want %d", c.workload, c.seconds, got, err, c.want)
		}
	}
	if _, err := windowPasses(rates, "compile", 20); err == nil {
		t.Error("a workload without a rate was accepted")
	}
	if _, err := windowPasses("compile=x", "compile", 20); err == nil {
		t.Error("a rate that is not a number was accepted")
	}
}
