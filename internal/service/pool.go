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

// Pool is a counting semaphore over the optimizer/estimator calls: it bounds
// how many run at once and how many may wait for a slot. Compilation work is
// CPU-bound, so the worker count defaults to GOMAXPROCS in the server;
// anything beyond workers+queue in flight is rejected immediately.
type Pool struct {
	slots    chan struct{}
	maxQueue int64
	// inflight counts admitted requests from entry until their work
	// completes; running counts those actually holding a worker slot.
	inflight atomic.Int64
	running  atomic.Int64
	// abandoned counts runs that returned because their caller's context
	// ended while they held a slot.
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

// Abandoned returns the number of runs cut short by their caller's context
// ending.
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

// Run calls fn on the caller's goroutine while holding a worker slot. It
// refuses a done ctx and a full waiting line, and gives up waiting for a
// slot when ctx ends. Cancellation is cooperative: fn observes the same ctx
// through its execution context (the optimizer's cancellation points), so
// a run whose ctx ends unwinds there and is counted as abandoned. The slot
// is back before Run returns, also when fn panics: a caller holding its
// result never reads itself in Depth, nor is the next request refused for a
// line that has already emptied.
func Run[T any](p *Pool, ctx context.Context, fn func() (T, error)) (v T, err error) {
	// Slot acquisition is the seam where a real scheduler dependency would
	// fail; an armed chaos plan fails (or stalls) the acquisition here,
	// before the request touches the waiting line.
	if err := faultinject.Check(faultinject.PointPoolAcquire); err != nil {
		return v, err
	}
	// A select below with a free slot and a done ctx picks either case, so
	// a dead request is refused before it can take one.
	if err := ctx.Err(); err != nil {
		return v, err
	}
	if p.inflight.Add(1) > int64(cap(p.slots))+p.maxQueue {
		p.inflight.Add(-1)
		return v, ErrQueueFull
	}
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.inflight.Add(-1)
		return v, ctx.Err()
	}
	p.running.Add(1)
	defer func() {
		if err != nil && ctx.Err() != nil {
			p.abandoned.Add(1)
		}
		p.running.Add(-1)
		p.inflight.Add(-1)
		<-p.slots
	}()
	return fn()
}
