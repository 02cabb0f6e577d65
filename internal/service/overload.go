package service

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"cote/internal/opt"
)

// Shedder is the server's overload controller. It sits in front of parsing
// — before any per-request work — and makes two kinds of decisions:
//
//   - Shed: refuse a request outright (429 + Retry-After) when the waiting
//     line is at its shed bound, or when the request's deadline cannot
//     survive the projected queue wait anyway. Shedding a request the
//     deadline would kill mid-queue wastes nothing; letting it in wastes a
//     worker slot on an answer nobody will receive.
//   - Downgrade: under sustained pressure short of shedding, walk optimize
//     requests down the same level ladder the admission controller and the
//     mid-flight budget aborts use (opt.Level.NextLower) — trading plan
//     quality for compilation time exactly the way the paper's
//     meta-optimizer does, but triggered by server load instead of a
//     per-query budget.
//
// The drain estimate is an EWMA of recent request service times; it prices
// how long a newly queued request will wait, which feeds both the deadline
// check and the Retry-After hint.
type Shedder struct {
	// pool's waiting-line bound is the shed bound: the shedder turns
	// would-be queue_full 503s into deliberate 429 sheds with a drain hint,
	// before parsing.
	pool *Pool
	// shedDeadline is the safety margin added to the projected queue wait
	// when testing a request's deadline: remaining < wait + margin → shed.
	shedDeadline time.Duration
	// avgRunNS is the EWMA of recent request service times (nanoseconds),
	// α = 1/8 — the TCP RTT estimator's constant, heavy enough to smooth
	// one-off outliers and light enough to track load shifts within a few
	// requests.
	avgRunNS atomic.Int64
}

func newShedder(pool *Pool, shedDeadline time.Duration) *Shedder {
	return &Shedder{pool: pool, shedDeadline: shedDeadline}
}

// observe folds one completed request's service time into the EWMA.
func (sh *Shedder) observe(d time.Duration) {
	n := d.Nanoseconds()
	for {
		old := sh.avgRunNS.Load()
		next := old + (n-old)/8
		if old == 0 {
			next = n // first observation seeds the average
		}
		if sh.avgRunNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// AvgRun returns the current service-time EWMA.
func (sh *Shedder) AvgRun() time.Duration {
	return time.Duration(sh.avgRunNS.Load())
}

// drainEstimate prices how long a request entering the queue now will wait
// for a worker: the waiting line ahead of it, batched across the workers, at
// the observed service time per batch.
func (sh *Shedder) drainEstimate(waiting int64) time.Duration {
	if waiting <= 0 {
		return 0
	}
	workers := int64(sh.pool.Workers())
	batches := (waiting + workers - 1) / workers
	return time.Duration(batches * sh.avgRunNS.Load())
}

// Admit decides whether a request may proceed to parsing. It returns nil to
// admit, or a *shedError (429 shed_overload + Retry-After) to shed.
func (sh *Shedder) Admit(ctx context.Context) error {
	waiting, _ := sh.pool.Depth()
	wait := sh.drainEstimate(waiting)
	if waiting >= sh.pool.maxQueue {
		return &shedError{
			msg:        fmt.Sprintf("service: overloaded (%d waiting, shed bound %d)", waiting, sh.pool.maxQueue),
			retryAfter: wait,
		}
	}
	if deadline, ok := ctx.Deadline(); ok {
		if remaining := time.Until(deadline); remaining < wait+sh.shedDeadline {
			return &shedError{
				msg: fmt.Sprintf("service: deadline %s cannot survive the projected queue wait %s",
					remaining.Round(time.Millisecond), wait.Round(time.Millisecond)),
				retryAfter: wait,
			}
		}
	}
	return nil
}

// PressureRungs reports how many level-ladder rungs the current load calls
// for: 0 below half queue occupancy, 1 at [1/2, 3/4), 2 at and beyond 3/4.
// The thresholds are on the waiting line only — running requests are the
// pool doing its job; a deep queue is the overload signal.
func (sh *Shedder) PressureRungs() int {
	waiting, _ := sh.pool.Depth()
	switch {
	case 4*waiting >= 3*sh.pool.maxQueue:
		return 2
	case 2*waiting >= sh.pool.maxQueue:
		return 1
	}
	return 0
}

// downgradeForPressure walks level down rungs ladder steps (never below the
// greedy floor) and returns the resulting level with the number of rungs
// actually descended.
func downgradeForPressure(level opt.Level, rungs int) (opt.Level, int) {
	applied := 0
	for i := 0; i < rungs && level != opt.LevelLow; i++ {
		level = level.NextLower()
		applied++
	}
	return level, applied
}
