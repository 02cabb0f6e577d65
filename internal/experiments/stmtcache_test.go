package experiments

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cote/internal/catalog"
	"cote/internal/core"
	"cote/internal/cost"
	"cote/internal/opt"
	"cote/internal/query"
	"cote/internal/stats"
	"cote/internal/workload"
)

// starBlock builds the star shape the statement-cache tests were written
// against: a center joined to n-1 satellites with preds join predicates per
// edge and orderby ORDER BY columns on the center, over its own catalog.
func starBlock(tb testing.TB, n, preds, orderby int) *query.Block {
	tb.Helper()
	sat := func(s int) string { return fmt.Sprintf("sat%d", s) }
	jc := func(s, p int) string { return fmt.Sprintf("j%d_%d", s, p) }
	cb := catalog.NewBuilder("star")
	ct := cb.Table("center", 1_000_000)
	for s := 1; s < n; s++ {
		for p := 0; p < preds; p++ {
			ct.Column(jc(s, p), 1_000)
		}
	}
	ct.Column("m1", 500).Column("m2", 500).Column("m3", 500)
	ct.Index("pk_center", true, jc(1, 0))
	for s := 1; s < n; s++ {
		st := cb.Table(sat(s), 10_000)
		for p := 0; p < preds; p++ {
			st.Column(jc(0, p), 1_000)
		}
		st.Column("d1", 100).Column("d2", 100)
		st.Index("ix_"+sat(s), false, jc(0, 0))
	}

	qb := query.NewBuilder("star", cb.Build())
	qb.AddTable("center", "")
	for s := 1; s < n; s++ {
		qb.AddTable(sat(s), "")
	}
	for s := 1; s < n; s++ {
		for p := 0; p < preds; p++ {
			qb.JoinEq("center", jc(s, p), sat(s), jc(0, p))
		}
	}
	var ob []query.ColID
	for i := 0; i < orderby; i++ {
		ob = append(ob, qb.Col("center", fmt.Sprintf("m%d", i+1)))
	}
	qb.OrderBy(ob...)
	blk, err := qb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return blk
}

// fastestCompile returns the fastest of repeated compiles of blk (the
// package's timing rule): tests that compare wall clocks use it on every
// timing they take.
func fastestCompile(t *testing.T, blk *query.Block, level opt.Level) *opt.Result {
	t.Helper()
	res, err := timedOptimize(workload.Query{Block: blk}, opt.Options{Level: level, Config: cost.Serial})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStatementCacheExactRepeats(t *testing.T) {
	c := NewStatementCache(1024)
	blk := starBlock(t, 6, 2, 1)
	if _, ok := c.Lookup(blk); ok {
		t.Fatal("hit on empty cache")
	}
	c.Record(blk, 123*time.Microsecond)
	// A structurally identical query (fresh build) hits.
	blk2 := starBlock(t, 6, 2, 1)
	d, ok := c.Lookup(blk2)
	if !ok || d != 123*time.Microsecond {
		t.Fatalf("exact repeat missed: %v %v", d, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStatementCacheMissesAdHocVariants(t *testing.T) {
	// The paper's point: ad-hoc variations defeat the cache while the COTE
	// estimates them all. One extra predicate per edge, one more ORDER BY
	// column — every variant misses.
	c := NewStatementCache(1024)
	c.Record(starBlock(t, 6, 2, 1), time.Millisecond)
	variants := []struct{ n, preds, ob int }{
		{6, 3, 1}, // one more predicate per edge
		{6, 2, 2}, // one more ORDER BY column
		{8, 2, 1}, // two more tables
	}
	for _, v := range variants {
		if _, ok := c.Lookup(starBlock(t, v.n, v.preds, v.ob)); ok {
			t.Fatalf("variant %+v hit the cache", v)
		}
	}
}

func TestStatementCacheVsCOTEOnAdHocWorkload(t *testing.T) {
	// Run the star batch as an "ad-hoc" stream: each query seen once. The
	// cache can only fall back to the last-seen time (a best-effort
	// strategy); the COTE predicts each query individually. The COTE must
	// win by a wide margin.
	var training []core.CompileObservation
	for preds := 1; preds <= 5; preds++ {
		for _, n := range []int{6, 8} {
			q := workload.Query{Block: starBlock(t, n, preds, 1)}
			o, err := core.TrainingObservation(func(o opt.Options) (*opt.Result, error) { return timedOptimize(q, o) },
				opt.Options{Level: opt.LevelHighInner2, Config: cost.Serial})
			if err != nil {
				t.Fatal(err)
			}
			training = append(training, o)
		}
	}
	model, err := core.Calibrate(training)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewStatementCache(1024)
	var last time.Duration
	var cacheEst, coteEst, actual []float64
	for preds := 1; preds <= 5; preds++ {
		blk := starBlock(t, 10, preds, 1)
		res := fastestCompile(t, blk, opt.LevelHighInner2)
		if d, ok := cache.Lookup(blk); ok {
			last = d
		}
		if last > 0 {
			cacheEst = append(cacheEst, last.Seconds())
			actual = append(actual, res.Elapsed.Seconds())
			est, err := core.EstimatePlans(blk, core.Options{Level: opt.LevelHighInner2, Model: model})
			if err != nil {
				t.Fatal(err)
			}
			coteEst = append(coteEst, est.PredictedTime.Seconds())
		}
		cache.Record(blk, res.Elapsed)
		last = res.Elapsed
	}
	cacheSum, _ := stats.Summarize(cacheEst, actual)
	coteSum, _ := stats.Summarize(coteEst, actual)
	if coteSum.Mean >= cacheSum.Mean {
		t.Fatalf("COTE (%.0f%%) not better than last-seen cache (%.0f%%) on ad-hoc stream",
			coteSum.Mean*100, cacheSum.Mean*100)
	}
}

func TestStatementCacheEviction(t *testing.T) {
	// Capacity 2: recording a third distinct statement evicts the least
	// recently used one, while a re-used statement survives.
	c := NewStatementCache(2)
	if c.Stats().Capacity != 2 {
		t.Fatalf("cap = %d", c.Stats().Capacity)
	}
	a := starBlock(t, 6, 1, 1)
	b := starBlock(t, 6, 2, 1)
	c.Record(a, 1*time.Millisecond)
	c.Record(b, 2*time.Millisecond)
	if _, ok := c.Lookup(a); !ok { // refresh a: b becomes the LRU
		t.Fatal("a missing before eviction")
	}
	c.Record(starBlock(t, 6, 3, 1), 3*time.Millisecond)
	if c.Stats().Size != 2 {
		t.Fatalf("len = %d, want 2", c.Stats().Size)
	}
	if _, ok := c.Lookup(b); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Lookup(a); !ok {
		t.Fatal("recently used entry a was evicted")
	}
}

func TestStatementCacheConcurrent(t *testing.T) {
	// N goroutines hammer one cache with overlapping record/lookup streams;
	// run under -race this guards the mutex, and the bounded cache must end
	// at most at capacity with consistent stats.
	c := NewStatementCache(8)
	var blks []*query.Block
	for preds := 1; preds <= 5; preds++ {
		blks = append(blks, starBlock(t, 6, preds, 1))
		blks = append(blks, starBlock(t, 8, preds, 1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				blk := blks[(g+i)%len(blks)]
				if _, ok := c.Lookup(blk); !ok {
					c.Record(blk, time.Duration(i)*time.Microsecond)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > 8 {
		t.Fatalf("len %d exceeds capacity", st.Size)
	}
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("stats %d+%d != %d lookups", st.Hits, st.Misses, 8*200)
	}
}
