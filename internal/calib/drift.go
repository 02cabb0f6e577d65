package calib

import (
	"math"
	"sync"
)

// Drift defaults; see NewDriftDetector.
const (
	DefaultDriftWindow     = 32
	DefaultDriftThreshold  = 0.5
	DefaultDriftMinSamples = 8
)

// DriftDetector tracks the rolling relative error of compile-time
// predictions against measured compile times. When the mean error over the
// window crosses the threshold the installed model has drifted from the
// live workload — the signal that triggers recalibration (or flags the
// model degraded when recalibration is gated off).
//
// Relative error rather than q-error keeps the metric identical to the one
// the paper evaluates on (Section 5's "within 30%" bars) and to
// stats.RelErr; non-finite errors (an actual of zero) are dropped rather
// than poisoning the window.
type DriftDetector struct {
	mu        sync.Mutex
	window    []float64
	next      int
	full      bool
	sum       float64
	threshold float64
	minN      int
}

// NewDriftDetector returns a detector over a rolling window of the given
// size that reports Degraded once at least minSamples errors are present
// and their mean exceeds threshold. Non-positive arguments take the
// package defaults.
func NewDriftDetector(window int, threshold float64, minSamples int) *DriftDetector {
	if window <= 0 {
		window = DefaultDriftWindow
	}
	if threshold <= 0 {
		threshold = DefaultDriftThreshold
	}
	if minSamples <= 0 {
		minSamples = DefaultDriftMinSamples
	}
	if minSamples > window {
		minSamples = window
	}
	return &DriftDetector{window: make([]float64, window), threshold: threshold, minN: minSamples}
}

// Observe folds one prediction's relative error into the window. NaN and
// Inf are ignored.
func (d *DriftDetector) Observe(relErr float64) {
	if math.IsNaN(relErr) || math.IsInf(relErr, 0) {
		return
	}
	d.mu.Lock()
	if d.full {
		d.sum -= d.window[d.next]
	}
	d.window[d.next] = relErr
	d.sum += relErr
	d.next++
	if d.next == len(d.window) {
		d.next = 0
		d.full = true
	}
	d.mu.Unlock()
}

// Drift returns the mean relative error over the window (zero when empty).
func (d *DriftDetector) Drift() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.n()
	if n == 0 {
		return 0
	}
	return d.sum / float64(n)
}

// N returns the number of errors currently in the window.
func (d *DriftDetector) N() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n()
}

func (d *DriftDetector) n() int {
	if d.full {
		return len(d.window)
	}
	return d.next
}

// Degraded reports whether the window holds enough samples and their mean
// relative error exceeds the threshold.
func (d *DriftDetector) Degraded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.n()
	return n >= d.minN && d.sum/float64(n) > d.threshold
}

// Reset empties the window — called after a successful recalibration so the
// fresh model is judged only on its own predictions.
func (d *DriftDetector) Reset() {
	d.mu.Lock()
	d.next = 0
	d.full = false
	d.sum = 0
	d.mu.Unlock()
}
