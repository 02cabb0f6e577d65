package calib

import (
	"math"
	"sync"
)

// The drift detector's constants: a window of the last DriftWindow
// prediction errors, which counts as drifted once it holds DriftMinSamples
// of them and their mean exceeds DriftThreshold. They are set by the
// project, not by an operator (ROADMAP item 2(b) is to re-derive them from
// measurement).
const (
	DriftWindow     = 32
	DriftThreshold  = 0.5
	DriftMinSamples = 8
)

// DriftDetector tracks the rolling relative error of compile-time
// predictions against measured compile times. When the mean error over the
// window crosses DriftThreshold the installed model has drifted from the
// live workload — the signal that triggers recalibration. The zero value is
// an empty detector.
//
// Relative error rather than q-error keeps the metric identical to the one
// the paper evaluates on (Section 5's "within 30%" bars) and to
// stats.RelErr; non-finite errors (an actual of zero) are dropped rather
// than poisoning the window.
type DriftDetector struct {
	mu     sync.Mutex
	window [DriftWindow]float64
	next   int
	full   bool
	sum    float64
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
	return n >= DriftMinSamples && d.sum/float64(n) > DriftThreshold
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
