package calib

import (
	"errors"
	"sync"
	"sync/atomic"

	"cote/internal/core"
	"cote/internal/stats"
)

// The loop's constants. No refit runs before MinSamples observations sit
// in the window, and automatic refit attempts are at least MinSamples
// observations apart, which bounds refit CPU under a workload that keeps
// drifting. Hysteresis is the improvement factor a candidate model must
// show over the incumbent on the observation window before it is installed
// (incumbentErr >= Hysteresis * candidateErr), which keeps the registry
// from churning versions on noise. The drift detector's window and
// threshold are in drift.go.
const (
	MinSamples = 8
	Hysteresis = 1.2
)

// ErrNotEnoughSamples reports a refit attempted before the window holds
// MinSamples observations.
var ErrNotEnoughSamples = errors.New("calib: not enough observations to recalibrate")

// ErrNoIncumbent reports a refit attempted with no installed model: a refit
// only rescales the incumbent's Ct proportions, so there is nothing to fit.
var ErrNoIncumbent = errors.New("calib: no installed model to rescale")

// ErrNoImprovement reports a refit whose candidate did not beat the
// incumbent by the hysteresis margin and was therefore not installed.
var ErrNoImprovement = errors.New("calib: recalibrated model not better than incumbent")

// Stats is a snapshot of the loop's counters for metrics endpoints; it is
// also the "calibration" object of GET /v1/model.
type Stats struct {
	// Observations counts every sample ever fed to the calibrator.
	Observations int64 `json:"observations"`
	// WindowLen / WindowCap describe the observation log's fill.
	WindowLen int `json:"window_len"`
	WindowCap int `json:"window_cap"`
	// Drift is the current mean relative prediction error; Degraded
	// reports it crossed the threshold with enough samples.
	Drift    float64 `json:"drift"`
	Degraded bool    `json:"degraded"`
	// Recalibrations counts installed refits; Rejected counts refits that
	// fit but failed the hysteresis test; Failures counts refits whose
	// regression errored (singular window and the like).
	Recalibrations int64 `json:"recalibrations"`
	Rejected       int64 `json:"rejected"`
	Failures       int64 `json:"failures"`
}

// Calibrator closes the feedback loop: it implements core.CompileObserver,
// folding every real compilation into the observation log and the drift
// detector, and — when the installed model has drifted and enough samples
// accumulated — rescales it over the window (core.Refit) and installs the
// result in the registry behind a hysteresis gate.
type Calibrator struct {
	onSwap func(*ModelVersion)
	log    Log
	drift  DriftDetector
	reg    *Registry

	// refitMu serializes refits; sinceAttempt (under it) spaces automatic
	// attempts MinSamples observations apart. refitted is the last model
	// this calibrator installed and anchor the model it rescaled: while
	// refitted is current, the next refit rescales anchor again, so each
	// installed Ct is one rounding from the proportions the loop started
	// from, however many refits ran.
	refitMu          sync.Mutex
	sinceAttempt     int
	anchor, refitted *core.TimeModel

	observations   atomic.Int64
	recalibrations atomic.Int64
	rejected       atomic.Int64
	failures       atomic.Int64
}

// NewCalibrator returns a calibrator feeding reg. Refits rescale reg's
// current model; while reg is empty the calibrator only observes. onSwap,
// when non-nil, runs after every refit it installs with the new version
// (the daemon persists the registry there); it is called synchronously, so
// keep it cheap.
func NewCalibrator(reg *Registry, onSwap func(*ModelVersion)) *Calibrator {
	return &Calibrator{onSwap: onSwap, reg: reg}
}

// Registry returns the model registry the calibrator installs into.
func (c *Calibrator) Registry() *Registry { return c.reg }

// Log returns the observation window.
func (c *Calibrator) Log() *Log { return &c.log }

// Stats snapshots the loop's counters.
func (c *Calibrator) Stats() Stats {
	return Stats{
		Observations:   c.observations.Load(),
		WindowLen:      c.log.Len(),
		WindowCap:      c.log.Cap(),
		Drift:          c.drift.Drift(),
		Degraded:       c.drift.Degraded(),
		Recalibrations: c.recalibrations.Load(),
		Rejected:       c.rejected.Load(),
		Failures:       c.failures.Load(),
	}
}

// ObserveCompile folds one real compilation into the loop (the
// core.CompileObserver hook): the sample joins the window, its prediction
// error joins the drift window, and — when drift has fired, the window
// holds enough samples, and the cooldown since the last attempt has passed
// — a recalibration runs synchronously. Observations with a non-positive
// measured time are dropped (nothing to learn from them).
func (c *Calibrator) ObserveCompile(o core.CompileObservation) {
	if o.Actual <= 0 {
		return
	}
	c.record(o)
	c.refitMu.Lock()
	c.sinceAttempt++
	due := c.sinceAttempt >= MinSamples &&
		c.log.Len() >= MinSamples &&
		c.drift.Degraded()
	if due {
		c.sinceAttempt = 0
	}
	c.refitMu.Unlock()
	if due {
		// Outcome bookkeeping happens inside; an auto refit that fails
		// (singular window) or is rejected simply waits out the next
		// cooldown.
		_, _ = c.Recalibrate("recalibrate")
	}
}

// record folds one measured observation into the window and its
// prediction error into the drift window.
func (c *Calibrator) record(o core.CompileObservation) {
	c.observations.Add(1)
	c.log.Add(o)
	predicted := o.Predicted
	if predicted == 0 {
		if m := c.reg.CurrentModel(); m != nil {
			predicted = m.Predict(o.Counts)
		}
	}
	if predicted > 0 {
		c.drift.Observe(stats.RelErr(predicted.Seconds(), o.Actual.Seconds()))
	}
}

// Recalibrate refits the model over the current observation window and
// installs it (source tags the registry entry) when it beats the incumbent
// by the hysteresis margin on that same window. The refit keeps the
// incumbent's Tinst and Ct proportions and fits their scale and C0
// (core.Refit): production compiles are untimed, so the window carries no
// per-method times, and the proportions come from the release or a training
// fit. It returns the installed version, ErrNotEnoughSamples on a thin
// window, ErrNoIncumbent with no model to rescale, ErrNoImprovement when the
// candidate lost, or the regression's error. A successful install resets
// the drift window.
func (c *Calibrator) Recalibrate(source string) (*ModelVersion, error) {
	c.refitMu.Lock()
	defer c.refitMu.Unlock()

	window := c.log.Snapshot()
	if len(window) < MinSamples {
		return nil, ErrNotEnoughSamples
	}
	incumbent := c.reg.CurrentModel()
	if incumbent == nil {
		return nil, ErrNoIncumbent
	}
	prior := incumbent
	if incumbent == c.refitted {
		prior = c.anchor
	}
	candidate, err := core.Refit(prior, window)
	if err != nil {
		c.failures.Add(1)
		return nil, err
	}
	candErr := windowError(candidate, window)
	if incErr := windowError(incumbent, window); incErr < candErr*Hysteresis {
		c.rejected.Add(1)
		return nil, ErrNoImprovement
	}
	v := c.reg.Install(candidate, source, len(window), candErr)
	c.anchor, c.refitted = prior, candidate
	c.recalibrations.Add(1)
	c.drift.Reset()
	if c.onSwap != nil {
		c.onSwap(v)
	}
	return v, nil
}

// windowError is the mean relative error of a model's predictions over a
// window of observations.
func windowError(m *core.TimeModel, window []core.CompileObservation) float64 {
	var sum float64
	var n int
	for _, o := range window {
		if o.Actual <= 0 {
			continue
		}
		sum += stats.RelErr(m.Predict(o.Counts).Seconds(), o.Actual.Seconds())
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
