package lru

import (
	"context"
	"errors"
	"sync"
)

// errLeaderPanicked is what the waiters of a flight get when the computation
// they share panics; the panic itself continues in the leader.
var errLeaderPanicked = errors.New("lru: the shared computation panicked")

// SingleFlight is a goroutine-safe Cache with hit/miss accounting and a
// single-flight group over misses: N concurrent Do calls for one absent key
// run one computation while N-1 wait for its result. It is the one place a
// mutex is paired with a Cache; the estimate cache and the §1.2 statement
// cache instantiate it.
type SingleFlight[K comparable, V any] struct {
	mu      sync.Mutex
	lru     *Cache[K, V]
	flights map[K]*flight[V]
	hits    int64
	misses  int64
	shared  int64
}

// flight is one in-progress computation concurrent callers wait on.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Stats is a point-in-time view of a SingleFlight. Shared counts Do calls
// that joined another caller's flight; they are in neither Hits nor Misses.
type Stats struct {
	Hits, Misses, Shared int64
	Size, Capacity       int
}

// NewSingleFlight returns an empty cache evicting beyond capacity entries
// (capacities below 1 are raised to 1).
func NewSingleFlight[K comparable, V any](capacity int) *SingleFlight[K, V] {
	return &SingleFlight[K, V]{
		lru:     New[K, V](capacity),
		flights: make(map[K]*flight[V]),
	}
}

// Do returns the value for key, computing it through fn at most once across
// concurrent callers: a cached value returns at once (hit), a caller finding
// another's computation in flight waits for its result or error (shared),
// and anyone else leads a computation whose success is cached. A waiter
// abandoned by ctx returns ctx's error without disturbing the flight; a
// failure reaches the flight's waiters and caches nothing. A panicking fn
// ends its flight too — the waiters get an error and the next Do
// on the key computes afresh — before the panic continues in the leader.
func (c *SingleFlight[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, hit, shared bool, err error) {
	c.mu.Lock()
	if e, ok := c.lru.Get(key); ok {
		c.hits++
		c.mu.Unlock()
		return e, true, false, nil
	}
	if f, ok := c.flights[key]; ok {
		c.shared++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.v, false, true, f.err
		case <-ctx.Done():
			return v, false, true, ctx.Err()
		}
	}
	c.misses++
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	f.err = errLeaderPanicked // stands unless fn returns
	defer c.land(key, f)
	f.v, f.err = fn()
	return f.v, false, false, f.err
}

// land ends the leader's flight: it caches a success and releases the
// waiters.
func (c *SingleFlight[K, V]) land(key K, f *flight[V]) {
	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.lru.Put(key, f.v)
	}
	c.mu.Unlock()
	close(f.done)
}

// Get returns the value cached under key, counting a hit or a miss. It
// neither joins nor starts a flight.
func (c *SingleFlight[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lru.Get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put stores v under key, evicting the least recently used entry when full.
func (c *SingleFlight[K, V]) Put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(key, v)
}

// Stats returns the counters and the current size and capacity.
func (c *SingleFlight[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Shared: c.shared, Size: c.lru.Len(), Capacity: c.lru.Cap()}
}
