package service

import (
	"context"
	"errors"
	"sync/atomic"

	"cote/internal/faultinject"
)

// ErrQueueFull reports that the pool's waiting line is at capacity; the
// server maps it to 503 so load sheds at the door instead of queueing
// unboundedly.
var ErrQueueFull = errors.New("service: worker pool queue full")

// Pool bounds the number of concurrently running optimizer/estimator calls
// and the number of requests allowed to wait for a slot. Compilation work
// is CPU-bound, so the worker count defaults to GOMAXPROCS in the server;
// anything beyond workers+queue in flight is rejected immediately.
type Pool struct {
	slots    chan struct{}
	maxQueue int64
	// inflight counts admitted requests from entry until their work
	// completes; running counts those actually holding a worker slot.
	inflight atomic.Int64
	running  atomic.Int64
	// abandoned counts runs whose caller's ctx expired mid-run — the work
	// was cancelled cooperatively and its slot reclaimed.
	abandoned atomic.Int64
}

// NewPool returns a pool of the given worker and waiting-line sizes
// (values below 1 are raised to 1).
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 1
	}
	return &Pool{slots: make(chan struct{}, workers), maxQueue: int64(queue)}
}

// Workers returns the number of worker slots.
func (p *Pool) Workers() int { return cap(p.slots) }

// Abandoned returns the number of runs cancelled mid-flight by their
// caller's context expiring.
func (p *Pool) Abandoned() int64 { return p.abandoned.Load() }

// Depth returns the current waiting and running request counts.
func (p *Pool) Depth() (waiting, running int64) {
	r := p.running.Load()
	w := p.inflight.Load() - r
	if w < 0 {
		w = 0
	}
	return w, r
}

// Run executes fn on the pool: it waits for a worker slot (or gives up when
// ctx expires or the waiting line is full) and runs fn in a fresh
// goroutine. When ctx expires mid-run the call returns ctx.Err()
// immediately and the run is counted as abandoned; fn is expected to
// observe the same ctx through its execution context (the optimizer's
// cooperative cancellation points), so the goroutine unwinds and frees its
// slot promptly rather than running to completion. The concurrency bound
// holds either way — the slot is released only when fn returns — and it is
// released before the result is published: a caller holding its result never
// reads itself in Depth, nor is the next request refused for a line that has
// already emptied.
func Run[T any](p *Pool, ctx context.Context, fn func() (T, error)) (T, error) {
	var zero T
	// Slot acquisition is the seam where a real scheduler dependency would
	// fail; an armed chaos plan fails (or stalls) the acquisition here,
	// before the request touches the waiting line.
	if err := faultinject.Check(faultinject.PointPoolAcquire); err != nil {
		return zero, err
	}
	if p.inflight.Add(1) > int64(cap(p.slots))+p.maxQueue {
		p.inflight.Add(-1)
		return zero, ErrQueueFull
	}
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.inflight.Add(-1)
		return zero, ctx.Err()
	}
	p.running.Add(1)

	type result struct {
		v   T
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := func() (T, error) {
			defer func() { // also when fn panics
				p.running.Add(-1)
				p.inflight.Add(-1)
				<-p.slots
			}()
			return fn()
		}()
		done <- result{v, err}
	}()
	select {
	case r := <-done:
		return r.v, r.err
	case <-ctx.Done():
		p.abandoned.Add(1)
		return zero, ctx.Err()
	}
}
