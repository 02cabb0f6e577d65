package core

import (
	"sync"
	"testing"
	"time"

	"cote/internal/opt"
	"cote/internal/query"
	"cote/internal/stats"
)

func TestStatementCacheExactRepeats(t *testing.T) {
	c := NewStatementCache()
	blk := starBlock(t, 6, 2, 1, 0, 1)
	if _, ok := c.Lookup(blk); ok {
		t.Fatal("hit on empty cache")
	}
	c.Record(blk, 123*time.Microsecond)
	// A structurally identical query (fresh build) hits.
	blk2 := starBlock(t, 6, 2, 1, 0, 1)
	d, ok := c.Lookup(blk2)
	if !ok || d != 123*time.Microsecond {
		t.Fatalf("exact repeat missed: %v %v", d, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 || c.Len() != 1 {
		t.Fatalf("stats = %d/%d len %d", hits, misses, c.Len())
	}
}

func TestStatementCacheMissesAdHocVariants(t *testing.T) {
	// The paper's point: ad-hoc variations defeat the cache while the COTE
	// estimates them all. One extra predicate per edge, one more ORDER BY
	// column — every variant misses.
	c := NewStatementCache()
	c.Record(starBlock(t, 6, 2, 1, 0, 1), time.Millisecond)
	variants := []struct{ n, preds, ob int }{
		{6, 3, 1}, // one more predicate per edge
		{6, 2, 2}, // one more ORDER BY column
		{8, 2, 1}, // two more tables
	}
	for _, v := range variants {
		if _, ok := c.Lookup(starBlock(t, v.n, v.preds, v.ob, 0, 1)); ok {
			t.Fatalf("variant %+v hit the cache", v)
		}
	}
}

func TestStatementCacheVsCOTEOnAdHocWorkload(t *testing.T) {
	// Run the star batch as an "ad-hoc" stream: each query seen once. The
	// cache can only fall back to the last-seen time (a best-effort
	// strategy); the COTE predicts each query individually. The COTE must
	// win by a wide margin.
	var training []TrainingPoint
	for preds := 1; preds <= 5; preds++ {
		for _, n := range []int{6, 8} {
			res := fastestCompile(t, starBlock(t, n, preds, 1, 0, 1), opt.LevelHighInner2)
			training = append(training, TrainingPointFrom(res.TotalCounters(), res.Elapsed))
		}
	}
	model, err := Calibrate(training)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewStatementCache()
	var last time.Duration
	var cacheEst, coteEst, actual []float64
	for preds := 1; preds <= 5; preds++ {
		blk := starBlock(t, 10, preds, 1, 0, 1)
		res := fastestCompile(t, blk, opt.LevelHighInner2)
		if d, ok := cache.Lookup(blk); ok {
			last = d
		}
		if last > 0 {
			cacheEst = append(cacheEst, last.Seconds())
			actual = append(actual, res.Elapsed.Seconds())
			est, err := EstimatePlans(blk, Options{Level: opt.LevelHighInner2, Model: model})
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
	c := NewStatementCacheCap(2)
	if c.Cap() != 2 {
		t.Fatalf("cap = %d", c.Cap())
	}
	a := starBlock(t, 6, 1, 1, 0, 1)
	b := starBlock(t, 6, 2, 1, 0, 1)
	c.Record(a, 1*time.Millisecond)
	c.Record(b, 2*time.Millisecond)
	if _, ok := c.Lookup(a); !ok { // refresh a: b becomes the LRU
		t.Fatal("a missing before eviction")
	}
	c.Record(starBlock(t, 6, 3, 1, 0, 1), 3*time.Millisecond)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
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
	c := NewStatementCacheCap(8)
	var blks []*query.Block
	for preds := 1; preds <= 5; preds++ {
		blks = append(blks, starBlock(t, 6, preds, 1, 0, 1))
		blks = append(blks, starBlock(t, 8, preds, 1, 0, 1))
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
	if c.Len() > 8 {
		t.Fatalf("len %d exceeds capacity", c.Len())
	}
	hits, misses := c.Stats()
	if hits+misses != 8*200 {
		t.Fatalf("stats %d+%d != %d lookups", hits, misses, 8*200)
	}
}

func TestPipelinePropertyEstimation(t *testing.T) {
	// FETCH FIRST makes pipelineability interesting; both the real plan
	// counts and the estimate grow, and they stay within tolerance.
	mk := func(firstN int) *TrainingPoint {
		blk := starBlock(t, 6, 2, 0, 0, 1)
		blk.FirstN = firstN
		res, err := opt.Optimize(blk, opt.Options{Level: opt.LevelHigh})
		if err != nil {
			t.Fatal(err)
		}
		blk2 := starBlock(t, 6, 2, 0, 0, 1)
		blk2.FirstN = firstN
		est, err := EstimatePlans(blk2, Options{Level: opt.LevelHigh})
		if err != nil {
			t.Fatal(err)
		}
		tp := TrainingPointFrom(res.TotalCounters(), res.Elapsed)
		t.Logf("firstN=%d actual=%d est=%d", firstN, tp.Counts.Total(), est.Counts.Total())
		if ratio := float64(est.Counts.Total()) / float64(tp.Counts.Total()); ratio < 0.5 || ratio > 2 {
			t.Fatalf("firstN=%d: estimate %d vs actual %d", firstN, est.Counts.Total(), tp.Counts.Total())
		}
		return &tp
	}
	plain := mk(0)
	firstN := mk(10)
	if firstN.Counts.Total() <= plain.Counts.Total() {
		t.Fatalf("FETCH FIRST did not grow actual plan counts: %d vs %d",
			firstN.Counts.Total(), plain.Counts.Total())
	}
}
