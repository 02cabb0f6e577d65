// Package cote is a reproduction, as a standalone Go library, of
// "Estimating Compilation Time of a Query Optimizer" (Ilyas, Rao, Lohman,
// Gao, Lin — SIGMOD 2003).
//
// The library contains a complete System-R-style cost-based query optimizer
// (bottom-up dynamic programming over a MEMO structure, interesting orders,
// three join methods, a serial and a shared-nothing parallel version) and,
// on top of it, the paper's contribution: a COmpilation Time Estimator
// (COTE) that predicts how long the optimizer will take on a query before
// running it, by reusing the join enumerator, bypassing plan generation,
// and counting the join plans each enumerated join would generate from
// per-MEMO-entry interesting-property lists.
//
// # Quick start
//
//	cat := cote.TPCHCatalog(1, 1)
//	q, err := cote.ParseSQL(`SELECT ... FROM ...`, cat)
//	res, err := cote.Optimize(q, cote.OptimizeOptions{Level: cote.LevelHigh})
//	fmt.Println(res.Plan)
//	res.Release() // optional: lets the next compile reuse its MEMOs
//	est, err := cote.EstimatePlans(q, cote.EstimateOptions{Level: cote.LevelHigh})
//
// To convert plan counts into a wall-clock prediction, calibrate a TimeModel
// once per machine and configuration on a training workload (see Calibrate)
// and pass it in EstimateOptions.Model, exactly as the paper fits its Ct
// constants by regression.
package cote

import (
	"context"

	"cote/internal/calib"
	"cote/internal/catalog"
	"cote/internal/core"
	"cote/internal/cost"
	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/props"
	"cote/internal/query"
	"cote/internal/sqlparser"
	"cote/internal/workload"
)

// Catalog is a database schema with statistics: tables, columns, indexes,
// physical partitionings, and foreign keys.
type Catalog = catalog.Catalog

// CatalogBuilder assembles a Catalog.
type CatalogBuilder = catalog.Builder

// NewCatalogBuilder starts building a schema with the given name.
func NewCatalogBuilder(name string) *CatalogBuilder { return catalog.NewBuilder(name) }

// TPCHCatalog returns the TPC-H schema at the given scale factor,
// partitioned across nodes when nodes > 1.
func TPCHCatalog(scale float64, nodes int) *Catalog { return catalog.TPCH(scale, nodes) }

// Warehouse1Catalog returns the retail-warehouse schema behind the real1
// and random workloads.
func Warehouse1Catalog(nodes int) *Catalog { return catalog.Warehouse1(nodes) }

// Warehouse2Catalog returns the financial-warehouse schema behind the real2
// workload.
func Warehouse2Catalog(nodes int) *Catalog { return catalog.Warehouse2(nodes) }

// Query is a parsed and normalized query: one block plus nested blocks for
// views and subqueries.
type Query = query.Block

// QueryBuilder assembles a Query programmatically, as an alternative to
// ParseSQL.
type QueryBuilder = query.Builder

// NewQueryBuilder starts building a query named name over the catalog.
func NewQueryBuilder(name string, cat *Catalog) *QueryBuilder {
	return query.NewBuilder(name, cat)
}

// ParseSQL compiles a SQL statement (SELECT with inner/left-outer joins,
// derived tables, IN-subqueries, GROUP BY, ORDER BY) against the catalog.
func ParseSQL(sql string, cat *Catalog) (*Query, error) { return sqlparser.Parse(sql, cat) }

// MustParseSQL is ParseSQL for statically known-good SQL; it panics on
// error.
func MustParseSQL(sql string, cat *Catalog) *Query { return sqlparser.MustParse(sql, cat) }

// Level is an optimization level: the greedy low level or a
// dynamic-programming level with knob presets.
type Level = opt.Level

// Optimization levels, from cheapest to most thorough.
const (
	LevelLow            = opt.LevelLow
	LevelMediumLeftDeep = opt.LevelMediumLeftDeep
	LevelMediumZigZag   = opt.LevelMediumZigZag
	LevelHighInner2     = opt.LevelHighInner2
	LevelHigh           = opt.LevelHigh
)

// Config selects the execution architecture the optimizer costs for.
type Config = cost.Config

// Serial and Parallel4 are the two configurations of the paper's
// experiments: a serial database and a 4-logical-node shared-nothing
// parallel one.
var (
	Serial    = cost.Serial
	Parallel4 = cost.Parallel4
)

// OptimizeOptions configures real query optimization.
type OptimizeOptions = opt.Options

// OptimizeResult is the outcome of a real optimization: the chosen plan,
// per-block MEMO state, counters and timings. Its plans live in its blocks'
// MEMOs until its Release method hands them to the next compile; after
// Release the counters, timings and resource figures stay valid while Plan
// and every block's Plan and Memo are nil. Releasing is optional: an
// unreleased result is garbage-collected like any value.
type OptimizeResult = opt.Result

// Optimize compiles the query for real: enumerates joins, generates and
// prunes plans, and returns the best plan with full instrumentation.
func Optimize(q *Query, opts OptimizeOptions) (*OptimizeResult, error) {
	return opt.Optimize(q, opts)
}

// OptimizeCtx is Optimize bounded by a context: the compilation stops
// cooperatively (promptly, at enumeration granularity) when ctx expires.
func OptimizeCtx(ctx context.Context, q *Query, opts OptimizeOptions) (*OptimizeResult, error) {
	return opt.OptimizeCtx(ctx, q, opts)
}

// ExecContext is a per-optimization execution context: cancellation, a
// generated-plan budget, a live progress meter (generated plans over the
// COTE-predicted total — the paper's Section 6 progress application) and
// per-stage observability hooks.
type ExecContext = optctx.Ctx

// ExecHooks observe a compilation driven under an ExecContext.
type ExecHooks = optctx.Hooks

// NewExecContext returns an execution context observing ctx. Arm it with
// SetPredictedPlans/SetPlanBudget and hooks via WithHooks, then pass it to
// OptimizeWith.
func NewExecContext(ctx context.Context) *ExecContext { return optctx.New(ctx) }

// ErrBudgetExceeded reports that a compilation overran its generated-plan
// budget and was aborted.
var ErrBudgetExceeded = optctx.ErrBudgetExceeded

// ErrMemBudgetExceeded reports that a compilation's measured optimizer
// memory crossed its byte budget (ExecContext.SetMemBudget) and was aborted.
var ErrMemBudgetExceeded = optctx.ErrMemBudgetExceeded

// ResourceSnapshot is a point-in-time view of one compilation's measured
// memory: current and peak bytes, total and durable (the deterministic MEMO
// content the memory model predicts).
type ResourceSnapshot = optctx.Resources

// OptimizeWith compiles under an execution context. A nil ExecContext
// behaves exactly like Optimize.
func OptimizeWith(oc *ExecContext, q *Query, opts OptimizeOptions) (*OptimizeResult, error) {
	return opt.OptimizeWith(oc, q, opts)
}

// EstimateOptions configures a compilation-time estimation.
type EstimateOptions = core.Options

// Estimate is the estimation outcome: per-method plan counts, enumerated
// joins, the estimator's own (small) wall time, and — given a model — the
// compilation-time and optimizer-memory predictions.
type Estimate = core.Estimate

// PlanCounts holds generated-plan counts per join method.
type PlanCounts = core.PlanCounts

// ListMode selects how the estimator maintains multiple property types
// (Section 3.4): separate per-type lists (the paper's choice) or explicit
// compound vectors.
type ListMode = core.ListMode

// List modes.
const (
	SeparateLists = core.SeparateLists
	CompoundLists = core.CompoundLists
)

// EstimatePlans runs the paper's plan-estimate mode: the join enumerator
// runs with plan generation bypassed, maintaining interesting-property
// lists to count the plans each join would generate.
func EstimatePlans(q *Query, opts EstimateOptions) (*Estimate, error) {
	return core.EstimatePlans(q, opts)
}

// EstimatePlansCtx is EstimatePlans bounded by a context.
func EstimatePlansCtx(ctx context.Context, q *Query, opts EstimateOptions) (*Estimate, error) {
	return core.EstimatePlansCtx(ctx, q, opts)
}

// Fingerprint is a canonical 128-bit structural hash of a query: invariant
// under table aliasing, predicate literal values and join-clause order,
// distinct across join-graph, knob and interesting-property changes.
type Fingerprint = fingerprint.FP

// FingerprintOf returns the structural fingerprint of q.
func FingerprintOf(q *Query) Fingerprint { return fingerprint.Of(q) }

// CanonicalQuery rebuilds q under its canonical table numbering and
// returns it with its fingerprint. Structurally equal queries rebuild into
// byte-identical canonical queries, which is what makes fingerprint
// equality imply identical plan counts.
func CanonicalQuery(q *Query) (*Query, Fingerprint, error) { return fingerprint.Canonical(q) }

// ActualPlanCounts extracts the generated-plan counts from a real
// optimization, for estimate-versus-actual comparisons.
func ActualPlanCounts(res *OptimizeResult) PlanCounts {
	return core.CountsFrom(res.TotalCounters())
}

// TimeModel converts plan counts to time: T = Tinst * (sum Ct*Pt + C0).
type TimeModel = core.TimeModel

// Calibrate fits the time model on TrainingObservation records: timed
// per-method generation times set the Ct proportions, wall times their
// scale and C0. Fit once per configuration, as the paper does per release.
func Calibrate(training []CompileObservation) (*TimeModel, error) { return core.Calibrate(training) }

// ObservationFrom builds the training record of one real optimization: its
// generated-plan counts, per-method timing breakdown (zero unless the
// compile was Timed), wall time and durable peak, plus the structural
// counts of est (the estimate of the same query at the same level) when est
// is non-nil. Calibrate needs only the former; CalibrateMemory needs both.
func ObservationFrom(res *OptimizeResult, est *Estimate) CompileObservation {
	return core.ObservationFrom(res, est)
}

// TrainingObservation is the training record of q: the counts and wall time
// of an untimed compile with opts, as production compiles run, and the
// per-method generation times of a timed one, which set Calibrate's Ct
// proportions.
func TrainingObservation(q *Query, opts OptimizeOptions) (CompileObservation, error) {
	return core.TrainingObservation(func(o opt.Options) (*opt.Result, error) { return opt.Optimize(q, o) }, opts)
}

// JoinCountModel is the prior-work baseline time model: T scales with the
// Ono-Lohman join count instead of the generated-plan counts.
type JoinCountModel = core.JoinCountModel

// MemModel converts the estimator's structural counts (MEMO entries, plans,
// property bytes) into a predicted peak of durable optimizer memory — the
// memory-side analogue of TimeModel (Section 6's optimizer-resource
// estimation).
type MemModel = core.MemModel

// DefaultMemModel returns the uncalibrated structural memory model built
// from the MEMO's real per-entry/per-plan footprints. It over-predicts
// (safe for admission) until CalibrateMemory refines it.
func DefaultMemModel() *MemModel { return core.DefaultMemModel() }

// CalibrateMemory fits the memory model's coefficients by non-negative
// least squares on observations that carry a measured peak and an estimate,
// exactly as Calibrate fits the time model's Ct constants.
func CalibrateMemory(training []CompileObservation) (*MemModel, error) {
	return core.CalibrateMemory(training)
}

// EstimateMemory predicts the peak durable optimizer memory of a
// compilation from its estimate's structural counts under the model (nil
// model selects DefaultMemModel).
func EstimateMemory(est *Estimate, m *MemModel) int64 { return core.EstimateMemory(est, m) }

// CompileObservation is the one training record of the time, memory and
// join-count models: one real compilation's plan counts, measured wall time
// and peak, the estimate's structural counts, and the prediction that was
// made for it — also the feedback unit of online calibration.
type CompileObservation = core.CompileObservation

// CompileObserver receives one CompileObservation per real compilation; a
// Calibrator is one (set it as MetaOptimizer.Observer to close the loop).
type CompileObserver = core.CompileObserver

// ModelProvider supplies the current time and memory models on every read;
// a ModelRegistry is one (set it as MetaOptimizer.Models so calibration
// swaps apply to the next run).
type ModelProvider = core.ModelProvider

// ModelVersion is one immutable, monotonically numbered model snapshot in a
// ModelRegistry, with its provenance.
type ModelVersion = calib.ModelVersion

// ModelRegistry is a versioned TimeModel store: reads are a single atomic
// load, installs advance a monotonic version, history is retained for
// rollback, and the whole registry round-trips to JSON on disk.
type ModelRegistry = calib.Registry

// NewModelRegistry returns an empty registry retaining at most retain
// versions (16 when retain <= 0).
func NewModelRegistry(retain int) *ModelRegistry { return calib.NewRegistry(retain) }

// LoadModelRegistry loads a registry persisted by its Save method. A
// missing file yields an empty registry. hostTinst (this host's measured
// per-instruction time, see MeasureTinst) rescales the persisted models to
// this machine's speed; zero keeps them as saved.
func LoadModelRegistry(path string, retain int, hostTinst float64) (*ModelRegistry, error) {
	return calib.Load(path, retain, hostTinst)
}

// MeasureTinst micro-benchmarks this host's effective seconds-per-
// instruction, the Tinst scale factor persisted registries are normalized
// by.
func MeasureTinst() float64 { return calib.MeasureTinst() }

// CalibratorConfig parameterizes the online calibration loop; the zero
// value enables automatic recalibration with the package defaults.
type CalibratorConfig = calib.Config

// Calibrator closes the calibration feedback loop: it observes real
// compilations, tracks prediction drift, and refits the model over the
// observation window into its registry when drift crosses the threshold.
type Calibrator = calib.Calibrator

// NewCalibrator returns a calibrator feeding reg.
func NewCalibrator(reg *ModelRegistry, cfg CalibratorConfig) *Calibrator {
	return calib.NewCalibrator(reg, cfg)
}

// MetaOptimizer is the paper's Figure 1 application: compile at the low
// level, estimate the high level's compilation time, and recompile only
// when the estimate is worth it.
type MetaOptimizer = core.MOP

// MOPDecision records what the meta-optimizer decided and why.
type MOPDecision = core.MOPDecision

// MultiLevelEstimate holds per-level plan counts from one enumeration pass.
type MultiLevelEstimate = core.MultiLevelEstimate

// EstimateLevels estimates several optimization levels in a single
// enumeration pass at the top level (the paper's Section 6.2 piggyback
// extension). Every requested level's search space must be subsumed by top.
func EstimateLevels(q *Query, top Level, levels []Level, opts EstimateOptions) (*MultiLevelEstimate, error) {
	return core.EstimateLevels(q, top, levels, opts)
}

// ClosedFormJoins returns the closed-form join count for "linear", "star"
// or "clique" queries of n tables — the Ono-Lohman baseline metric the paper
// improves on, which EstimatePlans reports as Estimate.Pairs for any query;
// other shapes have none (the general problem is #P-complete).
func ClosedFormJoins(shape string, n int) (int, error) { return core.ClosedFormJoins(shape, n) }

// JoinMethod identifies NLJN, MGJN or HSJN.
type JoinMethod = props.JoinMethod

// Join methods.
const (
	NLJN           = props.NLJN
	MGJN           = props.MGJN
	HSJN           = props.HSJN
	NumJoinMethods = props.NumJoinMethods
)

// Workload is a named collection of queries over one catalog.
type Workload = workload.Workload

// LinearWorkload returns the linear synthetic workload. For every workload
// constructor, nodes selects the serial (1) or parallel (4) variant — the
// paper's _s/_p suffixes.
func LinearWorkload(nodes int) *Workload { return workload.Linear(nodes) }

// StarWorkload returns the star synthetic workload.
func StarWorkload(nodes int) *Workload { return workload.Star(nodes) }

// RandomWorkload returns the seeded random workload over the real1 schema.
func RandomWorkload(seed int64, count, maxTables, nodes int) *Workload {
	return workload.Random(seed, count, maxTables, nodes)
}

// Real1Workload returns the first customer workload (8 queries).
func Real1Workload(nodes int) *Workload { return workload.Real1(nodes) }

// Real2Workload returns the second customer workload (17 queries).
func Real2Workload(nodes int) *Workload { return workload.Real2(nodes) }

// TPCHWorkload returns the seven longest-compiling TPC-H queries.
func TPCHWorkload(nodes int) *Workload { return workload.TPCH(nodes) }
