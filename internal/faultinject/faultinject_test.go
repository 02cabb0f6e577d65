package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestDisabledIsNil(t *testing.T) {
	Deactivate()
	if Enabled() {
		t.Fatal("enabled with no plan")
	}
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
	p, err := NewPlan(1, Rule{Point: PointModelPersist, Latency: 20 * time.Millisecond, Times: 1})
	if err != nil {
		t.Fatal(err)
	}
	Activate(p)
	defer Deactivate()
	start := time.Now()
	if err := Check(PointModelPersist); err != nil {
		t.Fatalf("latency-only rule returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("latency rule slept %v, want >= 20ms", d)
	}
	start = time.Now()
	_ = Check(PointModelPersist) // times=1 exhausted: no sleep
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("exhausted rule still slept %v", d)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=9; pool.acquire:error,p=0.5 ; cache.fill:latency=3ms,after=2,times=4; model.persist:error,latency=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 {
		t.Fatalf("seed = %d", p.Seed)
	}
	r := p.rules[PointPoolAcquire]
	if r == nil || !r.Error || r.Prob != 0.5 {
		t.Fatalf("pool.acquire rule = %+v", r)
	}
	r = p.rules[PointCacheFill]
	if r == nil || r.Error || r.Latency != 3*time.Millisecond || r.After != 2 || r.Times != 4 {
		t.Fatalf("cache.fill rule = %+v", r)
	}
	r = p.rules[PointModelPersist]
	if r == nil || !r.Error || r.Latency != time.Millisecond {
		t.Fatalf("model.persist rule = %+v", r)
	}

	for _, bad := range []string{
		"nosuch.point:error",                    // unknown point
		"fpcache.fill:error",                    // retired point
		"pool.acquire",                          // no directives
		"pool.acquire:p=0.5",                    // neither error nor latency
		"pool.acquire:error,p=1.5",              // probability out of range
		"pool.acquire:error,zap=1",              // unknown directive
		"seed=x",                                // bad seed
		"pool.acquire:error;pool.acquire:error", // duplicate
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
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

func ExampleParsePlan() {
	p, _ := ParsePlan("seed=4;pool.acquire:error,p=0.25,after=10")
	fmt.Println(p.Seed)
	// Output: 4
}
