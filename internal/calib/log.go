// Package calib is the online model-calibration subsystem: a bounded
// observation log fed by real compilations, a drift detector tracking how
// far the installed TimeModel's predictions have wandered from measured
// compile times, a recalibrator that refits the per-join-method constants
// over the observation window, and a versioned model registry with JSON
// persistence and rollback. Together they close the feedback loop the paper
// leaves offline (Section 4 refits per DB2 release; this refits per
// observation window).
package calib

import (
	"sync"

	"cote/internal/core"
)

// DefaultLogCapacity bounds the observation window when no capacity is
// configured.
const DefaultLogCapacity = 256

// Log is a bounded, goroutine-safe ring buffer of compile observations —
// the calibration window. Once full, each new observation overwrites the
// oldest, so the window tracks the recent workload rather than the whole
// history.
type Log struct {
	mu   sync.Mutex
	buf  []core.CompileObservation
	next int
	full bool
}

// NewLog returns an empty log holding at most capacity observations
// (DefaultLogCapacity when capacity <= 0).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultLogCapacity
	}
	return &Log{buf: make([]core.CompileObservation, capacity)}
}

// Add appends one observation, evicting the oldest when full.
func (l *Log) Add(o core.CompileObservation) {
	l.mu.Lock()
	l.buf[l.next] = o
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

// Snapshot returns the window's observations, oldest first. The slice is a
// copy; callers may keep it.
func (l *Log) Snapshot() []core.CompileObservation {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		return append([]core.CompileObservation(nil), l.buf[:l.next]...)
	}
	out := make([]core.CompileObservation, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Len returns the number of observations currently in the window.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return len(l.buf)
	}
	return l.next
}

// Cap returns the window capacity.
func (l *Log) Cap() int { return len(l.buf) }
