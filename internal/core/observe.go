package core

import (
	"time"

	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/props"
)

// CompileObservation is the one training record of every model this package
// fits: a real compilation, measured, and paired with the estimate of it.
// Calibrate regresses Actual on Counts (the paper's "real counts of
// generated join plans together with the actual compilation time"),
// CalibrateMemory regresses PeakBytes on the estimate's Entries,
// EstimatedPlans and PropertyBytes, and CalibrateJoinCount regresses Actual
// on Pairs. The online calibration loop consumes the same record, scoring
// Predicted (zero when no model priced the run) against Actual.
type CompileObservation struct {
	// Counts are the plans the optimizer actually generated, per method.
	Counts      PlanCounts
	Level       opt.Level
	Fingerprint fingerprint.FP
	Predicted   time.Duration
	Actual      time.Duration
	// GenSeconds is the measured per-method plan-generation time (plan
	// saving attributed proportionally to counts) of a timed compile, which
	// keeps Calibrate well conditioned when the per-method counts are
	// collinear. Zero for an untimed compile.
	GenSeconds [props.NumJoinMethods]float64
	// PeakBytes is the measured durable memory high-water mark of the
	// compilation (zero when it ran without an execution context).
	PeakBytes int64
	// Entries, PropertyBytes, EstimatedPlans and Pairs come from the
	// estimate of the same query at the same level (zero without one): MEMO
	// entries, property-list bytes, the estimate's generated-plan total and
	// the Ono-Lohman join-pair count.
	Entries        int
	PropertyBytes  int
	EstimatedPlans int
	Pairs          int
}

// ObservationFrom builds the record of one real optimization: the generated
// plan counts, per-method generation times, wall time and durable peak from
// res, and the structural regressors from est when est is non-nil. Callers
// set Level, Fingerprint and Predicted.
func ObservationFrom(res *opt.Result, est *Estimate) CompileObservation {
	c := res.TotalCounters()
	o := CompileObservation{
		Counts:    CountsFrom(c),
		Actual:    res.Elapsed,
		PeakBytes: res.Resources.DurablePeakBytes,
	}
	total := c.TotalGenerated()
	for m := range o.GenSeconds {
		o.GenSeconds[m] = c.GenTime[m].Seconds()
		if total > 0 {
			o.GenSeconds[m] += c.SaveTime.Seconds() * float64(c.Generated[m]) / float64(total)
		}
	}
	if est != nil {
		for _, be := range est.Blocks {
			o.Entries += be.Entries
			o.PropertyBytes += be.PropertyBytes
		}
		o.EstimatedPlans = est.Counts.Total()
		o.Pairs = est.Pairs
	}
	return o
}

// TrainingObservation is the record of one training point, from two
// compiles of it with opts: an untimed one, for the counts, wall time and
// peak that a production compile has, and a timed one, read only for its
// GenSeconds. Actual never includes the clock reads of the per-phase laps,
// so a model fitted on it does not over-predict the compiles it prices.
// compile runs each compile; both results are released. Callers set Level,
// Fingerprint and Predicted.
func TrainingObservation(compile func(opt.Options) (*opt.Result, error), opts opt.Options) (CompileObservation, error) {
	opts.Timed = false
	res, err := compile(opts)
	if err != nil {
		return CompileObservation{}, err
	}
	o := ObservationFrom(res, nil)
	res.Release()
	opts.Timed = true
	timed, err := compile(opts)
	if err != nil {
		return CompileObservation{}, err
	}
	o.GenSeconds = ObservationFrom(timed, nil).GenSeconds
	timed.Release()
	return o, nil
}

// CompileObserver receives one record per completed real compilation. The
// optimizer layers call it synchronously, so implementations must be cheap
// and goroutine-safe (internal/calib's Calibrator is the canonical one).
type CompileObserver interface {
	ObserveCompile(CompileObservation)
}

// ModelProvider yields the current compilation-time and memory models
// (internal/calib's versioned registry is one). MOP reads both at run start,
// so a model swap mid-stream is picked up by the next run without any
// re-wiring. Either may be nil: no time prediction, and the structural
// default memory model.
type ModelProvider interface {
	CurrentModel() *TimeModel
	CurrentMemModel() *MemModel
}
