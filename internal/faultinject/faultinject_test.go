package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisabledIsNil(t *testing.T) {
	Deactivate()
	if err := Check(PointPoolAcquire); err != nil {
		t.Fatalf("disabled Check = %v", err)
	}
	if Stats() != nil {
		t.Fatal("Stats with no plan should be nil")
	}
}

func TestUnconditionalErrorRule(t *testing.T) {
	p, err := NewPlan(1, Rule{Point: PointPoolAcquire, Error: true})
	if err != nil {
		t.Fatal(err)
	}
	Activate(p)
	defer Deactivate()
	err = Check(PointPoolAcquire)
	var f *Fault
	if !errors.As(err, &f) || f.Point != PointPoolAcquire {
		t.Fatalf("Check = %v, want Fault at %s", err, PointPoolAcquire)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatal("fault does not unwrap to ErrInjected")
	}
	// Unarmed points stay clean.
	if err := Check(PointCacheFill); err != nil {
		t.Fatalf("unarmed point tripped: %v", err)
	}
}

func TestAfterAndTimes(t *testing.T) {
	p, err := NewPlan(1, Rule{Point: PointCacheFill, Error: true, After: 3, Times: 2})
	if err != nil {
		t.Fatal(err)
	}
	Activate(p)
	defer Deactivate()
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, Check(PointCacheFill) != nil)
	}
	want := []bool{false, false, false, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: tripped=%v, want %v (sequence %v)", i+1, got[i], want[i], got)
		}
	}
	st := Stats()[PointCacheFill]
	if st.Calls != 8 || st.Trips != 2 {
		t.Fatalf("stats = %+v, want 8 calls / 2 trips", st)
	}
}

// TestProbabilityDeterministic pins the seeded decision sequence: the same
// plan replays bit-identical trip patterns, a different seed gives a
// different pattern, and the empirical rate lands near p.
func TestProbabilityDeterministic(t *testing.T) {
	sequence := func(seed uint64) []bool {
		p, err := NewPlan(seed, Rule{Point: PointPoolAcquire, Error: true, Prob: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		Activate(p)
		defer Deactivate()
		out := make([]bool, 400)
		for i := range out {
			out[i] = Check(PointPoolAcquire) != nil
		}
		return out
	}
	a, b := sequence(42), sequence(42)
	trips := 0
	diff := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs between identical plans", i+1)
		}
		if a[i] {
			trips++
		}
	}
	if trips < 60 || trips > 180 {
		t.Fatalf("p=0.3 tripped %d/400 times", trips)
	}
	c := sequence(43)
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 produced identical sequences")
	}
}

// TestDeterminismUnderConcurrency: the multiset of decisions is ordinal-keyed,
// so N concurrent callers observe exactly the same number of trips as N
// serial calls would.
func TestDeterminismUnderConcurrency(t *testing.T) {
	const calls = 1000
	serial := func() int {
		p, _ := NewPlan(7, Rule{Point: PointCacheFill, Error: true, Prob: 0.25})
		Activate(p)
		defer Deactivate()
		n := 0
		for i := 0; i < calls; i++ {
			if Check(PointCacheFill) != nil {
				n++
			}
		}
		return n
	}()

	p, _ := NewPlan(7, Rule{Point: PointCacheFill, Error: true, Prob: 0.25})
	Activate(p)
	defer Deactivate()
	var wg sync.WaitGroup
	var mu sync.Mutex
	concurrent := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < calls/8; i++ {
				if Check(PointCacheFill) != nil {
					n++
				}
			}
			mu.Lock()
			concurrent += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if concurrent != serial {
		t.Fatalf("concurrent trips %d != serial trips %d", concurrent, serial)
	}
}

func TestLatencyRule(t *testing.T) {
	p, err := NewPlan(1, Rule{Point: PointModelSwap, Latency: 20 * time.Millisecond, Times: 1})
	if err != nil {
		t.Fatal(err)
	}
	Activate(p)
	defer Deactivate()
	start := time.Now()
	if err := Check(PointModelSwap); err != nil {
		t.Fatalf("latency-only rule returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("latency rule slept %v, want >= 20ms", d)
	}
	start = time.Now()
	_ = Check(PointModelSwap) // times=1 exhausted: no sleep
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("exhausted rule still slept %v", d)
	}
}

// A rule with both an error and a latency stalls, then fails.
func TestErrorAndLatencyRule(t *testing.T) {
	p, err := NewPlan(1, Rule{Point: PointCacheFill, Error: true, Latency: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	Activate(p)
	defer Deactivate()
	start := time.Now()
	if err := Check(PointCacheFill); !errors.Is(err, ErrInjected) {
		t.Fatalf("Check = %v, want an injected fault", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("error+latency rule slept %v, want >= 5ms", d)
	}
}

// NewPlan refuses every rule that would arm nothing or arm it ambiguously.
func TestNewPlanRefuses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rules []Rule
	}{
		{"unknown point", []Rule{{Point: "nosuch.point", Error: true}}},
		{"retired fpcache.fill", []Rule{{Point: "fpcache.fill", Error: true}}},
		{"retired model.persist", []Rule{{Point: "model.persist", Error: true}}},
		{"neither error nor latency", []Rule{{Point: PointPoolAcquire, Prob: 0.5}}},
		{"probability above 1", []Rule{{Point: PointPoolAcquire, Error: true, Prob: 1.5}}},
		{"probability below 0", []Rule{{Point: PointPoolAcquire, Error: true, Prob: -0.1}}},
		{"duplicate point", []Rule{{Point: PointPoolAcquire, Error: true}, {Point: PointPoolAcquire, Error: true}}},
	} {
		if _, err := NewPlan(1, tc.rules...); err == nil {
			t.Errorf("%s: NewPlan(%+v) accepted", tc.name, tc.rules)
		}
	}
}

// BenchmarkCheckDisabled pins the disabled-path cost the acceptance
// criterion bounds: one atomic load, zero allocations.
func BenchmarkCheckDisabled(b *testing.B) {
	Deactivate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Check(PointMemBudget) != nil {
			b.Fatal("tripped while disabled")
		}
	}
}
