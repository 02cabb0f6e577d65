package lru

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSingleflightShared drives SingleFlight.Do with a blocking leader:
// concurrent callers of the same key must wait for the one computation
// instead of running their own, and a caller abandoned by its context must
// return promptly.
func TestSingleflightShared(t *testing.T) {
	type est struct{ joins int }
	c := NewSingleFlight[string, *est](4)
	const key = "k"
	want := &est{joins: 42}

	release := make(chan struct{})
	started := make(chan struct{})
	var leaderErr error
	var leaderEst *est
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderEst, _, _, leaderErr = c.Do(context.Background(), key, func() (*est, error) {
			close(started)
			<-release
			return want, nil
		})
	}()
	<-started

	// A waiter with a dead context abandons the flight without a value.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, shared, err := c.Do(cancelled, key, nil); !shared || err == nil {
		t.Fatalf("cancelled waiter: shared=%v err=%v", shared, err)
	}

	waiters := 3
	results := make(chan *est, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, shared, err := c.Do(context.Background(), key, func() (*est, error) {
				t.Error("waiter ran its own computation")
				return nil, nil
			})
			if err != nil || hit || !shared {
				t.Errorf("waiter: hit=%v shared=%v err=%v", hit, shared, err)
			}
			results <- v
		}()
	}
	// Release the flight once every waiter has joined it (a join is counted
	// under the lock, before the waiter parks).
	for c.Stats().Shared != int64(waiters)+1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if leaderErr != nil || leaderEst != want {
		t.Fatalf("leader: %v %p", leaderErr, leaderEst)
	}
	for i := 0; i < waiters; i++ {
		if got := <-results; got != want {
			t.Fatalf("waiter got %p, want %p", got, want)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.Shared != int64(waiters)+1 || st.Size != 1 {
		t.Fatalf("stats after flight: %+v", st)
	}
	// The flight's result is cached for later callers.
	if _, hit, _, _ := c.Do(context.Background(), key, nil); !hit {
		t.Fatal("post-flight lookup missed")
	}
}

// TestSingleflightFailureNotCached checks a failed computation reaches its
// caller, caches nothing, and leaves the key free for the next attempt.
func TestSingleflightFailureNotCached(t *testing.T) {
	c := NewSingleFlight[int, int](2)
	boom := errors.New("boom")
	if _, hit, shared, err := c.Do(context.Background(), 1, func() (int, error) { return 0, boom }); err != boom || hit || shared {
		t.Fatalf("failed fill: hit=%v shared=%v err=%v", hit, shared, err)
	}
	v, hit, _, err := c.Do(context.Background(), 1, func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry after failure: v=%d hit=%v err=%v", v, hit, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Size != 1 || st.Capacity != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSingleflightLeaderPanic panics inside a flight that has a waiter: the
// panic must reach the leader's caller, the waiter must get an error instead
// of waiting on a dead flight, and the next Do on the key must compute.
func TestSingleflightLeaderPanic(t *testing.T) {
	c := NewSingleFlight[int, int](2)
	// A dead flight would hold its waiters until their context ends.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	joined := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		<-joined
		_, _, shared, err := c.Do(ctx, 1, func() (int, error) {
			t.Error("waiter ran its own computation")
			return 0, nil
		})
		if !shared {
			t.Error("waiter did not join the leader's flight")
		}
		waited <- err
	}()
	func() {
		defer func() {
			if recover() != "boom" {
				t.Error("the leader's panic did not reach its caller")
			}
		}()
		_, _, _, _ = c.Do(context.Background(), 1, func() (int, error) {
			close(joined)
			// Panic once the waiter has joined (a join is counted under the
			// lock, before the waiter parks).
			for c.Stats().Shared == 0 {
				runtime.Gosched()
			}
			panic("boom")
		})
	}()
	if err := <-waited; !errors.Is(err, errLeaderPanicked) {
		t.Fatalf("waiter: err = %v, want errLeaderPanicked", err)
	}
	v, hit, shared, err := c.Do(ctx, 1, func() (int, error) { return 7, nil })
	if err != nil || hit || shared || v != 7 {
		t.Fatalf("Do after the panic: v=%d hit=%v shared=%v err=%v, want a fresh computation", v, hit, shared, err)
	}
}

// TestSingleflightGetPut covers the plain counted lookups the statement-cache
// baseline uses.
func TestSingleflightGetPut(t *testing.T) {
	c := NewSingleFlight[string, int](1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("b", 2) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted key still present")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 || st.Size != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
