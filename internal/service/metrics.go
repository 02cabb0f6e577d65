package service

import (
	"math/bits"
	"sync/atomic"
	"time"

	"cote/internal/calib"
	"cote/internal/optctx"
	"cote/internal/resource"
)

// Counter is an atomic monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by one.
func (c *Counter) Add() { c.v.Add(1) }

// AddN increments the counter by n.
func (c *Counter) AddN(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// MaxGauge is an atomic high-water mark: Observe keeps the largest value
// ever seen.
type MaxGauge struct{ v atomic.Int64 }

// Observe folds one value into the maximum.
func (g *MaxGauge) Observe(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the maximum observed so far.
func (g *MaxGauge) Value() int64 { return g.v.Load() }

// Histogram is a lock-free latency histogram over power-of-two microsecond
// buckets: bucket i counts observations in [2^(i-1), 2^i) µs. Thirty-two
// buckets cover sub-microsecond to over an hour.
type Histogram struct {
	buckets [32]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := bits.Len64(uint64(us))
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) from the
// bucket boundaries, as a duration. Zero observations yield zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			// Upper bucket boundary: 2^i - 1 µs (bucket 0 holds [0, 1) µs).
			return time.Duration((int64(1)<<i)-1) * time.Microsecond
		}
	}
	return time.Duration((int64(1)<<len(h.buckets))-1) * time.Microsecond
}

// snapshot is the JSON form of a histogram.
type histogramSnapshot struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  int64   `json:"p50_us"`
	P90US  int64   `json:"p90_us"`
	P99US  int64   `json:"p99_us"`
}

func (h *Histogram) snapshot() histogramSnapshot {
	s := histogramSnapshot{
		Count: h.count.Load(),
		P50US: h.Quantile(0.50).Microseconds(),
		P90US: h.Quantile(0.90).Microseconds(),
		P99US: h.Quantile(0.99).Microseconds(),
	}
	if s.Count > 0 {
		s.MeanUS = float64(h.sumUS.Load()) / float64(s.Count)
	}
	return s
}

// Metrics is the server's observability surface: request counters per
// endpoint, latency histograms for the two heavy paths, estimate-cache and
// admission outcomes, and load-shedding counters. GET /metrics renders a
// snapshot as plain JSON (stdlib only, expvar-style).
type Metrics struct {
	start time.Time

	EstimateRequests  Counter
	OptimizeRequests  Counter
	CalibrateRequests Counter
	CatalogUploads    Counter
	Errors            Counter

	EstimateLatency Histogram
	OptimizeLatency Histogram

	CacheHits   Counter
	CacheMisses Counter
	// SharedFlights counts estimate requests served by waiting on another
	// request's in-flight enumeration of the same fingerprint (the
	// singleflight path: no cache entry yet, no own enumeration either).
	SharedFlights Counter

	// BatchRequests / BatchStatements / BatchDeduped instrument
	// POST /v1/estimate/batch: calls, statements submitted, and statements
	// answered by another statement of the same batch (same fingerprint).
	BatchRequests   Counter
	BatchStatements Counter
	BatchDeduped    Counter

	AdmissionAccepted   Counter
	AdmissionRejected   Counter
	AdmissionDowngraded Counter
	AdmissionBypassed   Counter

	QueueRejected Counter
	Timeouts      Counter
	// ShedRequests counts requests refused at the door by the overload
	// shedder (429 shed_overload); OverloadDowngrades counts optimize
	// requests the pressure ladder walked to a cheaper level before
	// admission.
	ShedRequests       Counter
	OverloadDowngrades Counter
	// BudgetAborts counts optimizations aborted because generated plans
	// overran the COTE prediction by more than the budget factor;
	// MemBudgetAborts counts those aborted because measured optimizer
	// memory crossed the memory budget.
	BudgetAborts    Counter
	MemBudgetAborts Counter

	// Resource accounting over every accounted compilation: runs observed,
	// cumulative peak bytes (total and durable), and the largest single-run
	// peaks since start — the /metrics "resource" section.
	ResourceRuns           Counter
	ResourcePeakSum        Counter
	ResourceDurableSum     Counter
	ResourcePeakMax        MaxGauge
	ResourceDurablePeakMax MaxGauge

	// Observations counts real optimizations fed to the calibration loop;
	// ModelInstalls counts model versions installed through the API paths
	// (seed, calibrate, upload, rollback). Automatic recalibrations are
	// reported from the calibrator itself in the snapshot's calibration
	// section.
	Observations  Counter
	ModelInstalls Counter

	// EnumCandidatesVisited / EnumCandidatesSkipped aggregate the size-class
	// scan's work over every enumeration the server ran: partner slots
	// examined vs slots of whole size-class pairs the level's shape and
	// composite-inner knobs rule out (their sum is the full DPsize cross
	// product; skipped stays 0 at level "high").
	EnumCandidatesVisited Counter
	EnumCandidatesSkipped Counter

	// StageCount / StageTimeUS aggregate the per-stage observability of
	// every completed compilation: units processed and microseconds spent in
	// parse, enumerate, generate and prune.
	StageCount  [optctx.NumStages]Counter
	StageTimeUS [optctx.NumStages]Counter
}

// NewMetrics returns zeroed metrics with the uptime clock started.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// ObserveStage folds one stage observation into the aggregates.
func (m *Metrics) ObserveStage(s optctx.Stage, count int64, elapsed time.Duration) {
	if s < 0 || s >= optctx.NumStages {
		return
	}
	m.StageCount[s].AddN(count)
	m.StageTimeUS[s].AddN(elapsed.Microseconds())
}

// ObserveResources folds one accounted compilation's resource snapshot into
// the aggregates. Unaccounted runs (zero snapshot) are skipped.
func (m *Metrics) ObserveResources(s resource.Snapshot) {
	if s.PeakBytes == 0 && s.DurablePeakBytes == 0 {
		return
	}
	m.ResourceRuns.Add()
	m.ResourcePeakSum.AddN(s.PeakBytes)
	m.ResourceDurableSum.AddN(s.DurablePeakBytes)
	m.ResourcePeakMax.Observe(s.PeakBytes)
	m.ResourceDurablePeakMax.Observe(s.DurablePeakBytes)
}

// ObserveStages folds a finished compilation's per-stage snapshot into the
// aggregates.
func (m *Metrics) ObserveStages(oc *optctx.Ctx) {
	if oc == nil {
		return
	}
	for s, st := range oc.StageSnapshot() {
		m.ObserveStage(optctx.Stage(s), st.Count, st.Time)
	}
}

// Snapshot renders every metric, plus the live pool, cache, overload and
// calibration gauges, as a JSON-marshalable map. Rendered through
// encoding/json the snapshot is byte-deterministic for fixed counter values:
// every level is a map (marshaled in sorted key order) or a struct with a
// fixed field order. The metrics golden test pins this.
func (m *Metrics) Snapshot(pool *Pool, cache *EstimateCache, cal *calib.Calibrator, shed *Shedder) map[string]any {
	waiting, running := pool.Depth()
	cst := cache.Stats()
	cs := cal.Stats()
	return map[string]any{
		"uptime_seconds": int64(time.Since(m.start).Seconds()),
		"requests": map[string]int64{
			"estimate":        m.EstimateRequests.Value(),
			"optimize":        m.OptimizeRequests.Value(),
			"calibrate":       m.CalibrateRequests.Value(),
			"catalog_uploads": m.CatalogUploads.Value(),
			"errors":          m.Errors.Value(),
		},
		"latency": map[string]any{
			"estimate": m.EstimateLatency.snapshot(),
			"optimize": m.OptimizeLatency.snapshot(),
		},
		"estimate_cache": map[string]int64{
			"hits":           m.CacheHits.Value(),
			"misses":         m.CacheMisses.Value(),
			"shared_flights": m.SharedFlights.Value(),
			"size":           int64(cst.Size),
			"capacity":       int64(cst.Capacity),
		},
		"estimate_batch": map[string]int64{
			"requests":   m.BatchRequests.Value(),
			"statements": m.BatchStatements.Value(),
			"deduped":    m.BatchDeduped.Value(),
		},
		"admission": map[string]int64{
			"accepted":   m.AdmissionAccepted.Value(),
			"rejected":   m.AdmissionRejected.Value(),
			"downgraded": m.AdmissionDowngraded.Value(),
			"bypassed":   m.AdmissionBypassed.Value(),
		},
		"overload": map[string]int64{
			"shed_requests":       m.ShedRequests.Value(),
			"overload_downgrades": m.OverloadDowngrades.Value(),
			"pressure_rungs":      int64(shed.PressureRungs()),
			"avg_run_us":          shed.AvgRun().Microseconds(),
		},
		"pool": map[string]int64{
			"workers":        int64(pool.Workers()),
			"running":        running,
			"queued":         waiting,
			"queue_rejected": m.QueueRejected.Value(),
			"timeouts":       m.Timeouts.Value(),
			"abandoned_runs": pool.Abandoned(),
			"budget_aborts":  m.BudgetAborts.Value(),
		},
		"resource": map[string]int64{
			"accounted_runs":         m.ResourceRuns.Value(),
			"peak_bytes_sum":         m.ResourcePeakSum.Value(),
			"durable_peak_sum":       m.ResourceDurableSum.Value(),
			"peak_bytes_max":         m.ResourcePeakMax.Value(),
			"durable_peak_bytes_max": m.ResourceDurablePeakMax.Value(),
			"mem_budget_aborts":      m.MemBudgetAborts.Value(),
		},
		"calibration": map[string]any{
			"model_version":      int64(cal.Registry().Version()),
			"model_installs":     m.ModelInstalls.Value(),
			"observations":       m.Observations.Value(),
			"window_len":         int64(cs.WindowLen),
			"window_cap":         int64(cs.WindowCap),
			"drift":              cs.Drift,
			"degraded":           cs.Degraded,
			"recalibrations":     cs.Recalibrations,
			"refits_rejected":    cs.Rejected,
			"refits_failed":      cs.Failures,
			"mem_samples":        int64(cs.MemSamples),
			"mem_recalibrations": cs.MemRecalibrations,
		},
		"enum_scan": map[string]int64{
			"candidates_visited": m.EnumCandidatesVisited.Value(),
			"candidates_skipped": m.EnumCandidatesSkipped.Value(),
		},
		"stages": m.stagesSnapshot(),
	}
}

// stagesSnapshot renders the per-stage aggregates keyed by stage name.
func (m *Metrics) stagesSnapshot() map[string]map[string]int64 {
	out := make(map[string]map[string]int64, optctx.NumStages)
	for s := optctx.Stage(0); s < optctx.NumStages; s++ {
		out[s.String()] = map[string]int64{
			"count":   m.StageCount[s].Value(),
			"time_us": m.StageTimeUS[s].Value(),
		}
	}
	return out
}
