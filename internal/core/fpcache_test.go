package core

import (
	"sync"
	"testing"

	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/query"
)

func TestFingerprintCacheHitMatchesMiss(t *testing.T) {
	c := NewFingerprintCache(16)
	blk := starBlock(t, 6, 2, 1, 1, 1)
	cold, hit, err := c.EstimatePlans(blk, Options{Level: opt.LevelHighInner2})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first estimate reported a hit")
	}

	// A fresh build of the same structure must hit and return identical
	// numbers.
	twin := starBlock(t, 6, 2, 1, 1, 1)
	warm, hit, err := c.EstimatePlans(twin, Options{Level: opt.LevelHighInner2})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("structurally identical estimate missed")
	}
	if warm.Counts != cold.Counts || warm.Joins != cold.Joins || warm.Pairs != cold.Pairs {
		t.Fatalf("hit diverged: %+v/%d/%d vs %+v/%d/%d",
			warm.Counts, warm.Joins, warm.Pairs, cold.Counts, cold.Joins, cold.Pairs)
	}
	if warm.PredictedMemoryBytes != cold.PredictedMemoryBytes {
		t.Fatalf("hit memory %d != cold %d", warm.PredictedMemoryBytes, cold.PredictedMemoryBytes)
	}

	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Size != 1 || st.Capacity != 16 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFingerprintCacheKnobDistinctness verifies every count-affecting knob
// participates in the key: the same query under each knob variation must
// miss rather than serve another configuration's counts.
func TestFingerprintCacheKnobDistinctness(t *testing.T) {
	c := NewFingerprintCache(64)
	variants := []Options{
		{},
		{Level: opt.LevelMediumLeftDeep},
		{Level: opt.LevelMediumZigZag},
		{Level: opt.LevelHigh},
		{Config: cost.Parallel4},
		{OrderPolicy: props.Lazy},
		{ListMode: CompoundLists},
		{PropagateEveryJoin: true},
		{CartesianPolicy: enum.CartesianNever},
		{CartesianPolicy: enum.CartesianAlways},
	}
	for i, o := range variants {
		blk := starBlock(t, 5, 2, 1, 0, nodesOf(o))
		if _, hit, err := c.EstimatePlans(blk, o); err != nil {
			t.Fatal(err)
		} else if hit {
			t.Fatalf("variant %d hit a previous knob set's entry", i)
		}
	}
	// The zero options normalize to LevelHighInner2 serial: a repeat is the
	// only hit.
	blk := starBlock(t, 5, 2, 1, 0, 1)
	if _, hit, err := c.EstimatePlans(blk, Options{Level: opt.LevelHighInner2}); err != nil {
		t.Fatal(err)
	} else if !hit {
		t.Fatal("normalized default level missed the zero-options entry")
	}
}

func nodesOf(o Options) int {
	if o.Config != nil && o.Config.Nodes > 1 {
		return o.Config.Nodes
	}
	return 1
}

// TestFingerprintCacheModelReapplied verifies hits are re-priced with the
// caller's model rather than serving a stale (or zero) prediction.
func TestFingerprintCacheModelReapplied(t *testing.T) {
	c := NewFingerprintCache(16)
	blk := starBlock(t, 5, 1, 0, 0, 1)
	if _, _, err := c.EstimatePlans(blk, Options{}); err != nil {
		t.Fatal(err)
	}
	m := &TimeModel{Tinst: 1e-8, C: [props.NumJoinMethods]float64{40, 20, 30}, C0: 1000}
	warm, hit, err := c.EstimatePlans(starBlock(t, 5, 1, 0, 0, 1), Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("expected hit")
	}
	if want := m.Predict(warm.Counts); warm.PredictedTime != want {
		t.Fatalf("hit PredictedTime %v, want %v", warm.PredictedTime, want)
	}
}

func TestFingerprintCacheEviction(t *testing.T) {
	c := NewFingerprintCache(1)
	a := starBlock(t, 4, 1, 0, 0, 1)
	b := starBlock(t, 5, 1, 0, 0, 1)
	if _, hit, _ := c.EstimatePlans(a, Options{}); hit {
		t.Fatal("cold a hit")
	}
	if _, hit, _ := c.EstimatePlans(b, Options{}); hit {
		t.Fatal("cold b hit")
	}
	// a was evicted by b under capacity 1.
	if _, hit, _ := c.EstimatePlans(starBlock(t, 4, 1, 0, 0, 1), Options{}); hit {
		t.Fatal("evicted entry still hit")
	}
	if _, hit, _ := c.EstimatePlans(starBlock(t, 4, 1, 0, 0, 1), Options{}); !hit {
		t.Fatal("refilled entry missed")
	}
}

// TestSingleflightFingerprintCache fires 16 concurrent callers at one cold
// structure: exactly one enumerates, the other 15 are hits or waits on its
// flight, and all return its counts.
func TestSingleflightFingerprintCache(t *testing.T) {
	const callers = 16
	c := NewFingerprintCache(4)
	opts := Options{Level: opt.LevelHighInner2}
	want, err := EstimatePlans(mustCanonical(t, starBlock(t, 8, 2, 1, 0, 1)), opts)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		blk := starBlock(t, 8, 2, 1, 0, 1) // a fresh build per caller: same structure, no shared block
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			est, _, err := c.EstimatePlans(blk, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if est.Counts != want.Counts || est.Joins != want.Joins {
				t.Errorf("caller got %+v/%d, want %+v/%d", est.Counts, est.Joins, want.Counts, want.Joins)
			}
		}()
	}
	close(start)
	wg.Wait()
	if st := c.Stats(); st.Misses != 1 || st.Hits+st.Shared != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+shared", st, callers-1)
	}
}

func mustCanonical(t *testing.T, blk *query.Block) *query.Block {
	t.Helper()
	canon, _, err := fingerprint.Canonical(blk)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}
