package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"cote/internal/calib"
	"cote/internal/core"
	"cote/internal/faultinject"
	"cote/internal/knobs"
	"cote/internal/modelio"
	"cote/internal/opt"
	"cote/internal/query"
)

// Config parameterizes the server. The zero value is usable: GOMAXPROCS
// workers, a 4x waiting line, 30s request timeout, a 1024-entry estimate
// cache, and admission control disabled until a budget is set or a model
// is calibrated.
type Config struct {
	// Workers bounds concurrently running estimations/optimizations
	// (default GOMAXPROCS — the work is CPU-bound).
	Workers int
	// Queue bounds requests waiting for a worker (default 4*Workers). The
	// overload shedder refuses a request arriving at this bound with 429 +
	// Retry-After before any parsing.
	Queue int
	// RequestTimeout bounds one estimate/optimize request, queueing
	// included (default 30s; negative disables).
	RequestTimeout time.Duration
	// CacheCapacity sizes the estimate cache (default 1024).
	CacheCapacity int
	// Budget is the admission controller's compilation-time budget for
	// POST /v1/optimize: requests whose predicted compilation time exceeds
	// it are rejected or downgraded. Zero disables admission control.
	Budget time.Duration
	// Downgrade makes the admission controller retry cheaper levels
	// instead of rejecting over-budget requests.
	Downgrade bool
	// Models, when non-nil, is the model registry the server starts with
	// (cmd/coted passes the one modelio resolves); otherwise the server
	// creates an empty one. POST /v1/model, POST /v1/calibrate and the
	// online recalibrator install new versions into it.
	Models *calib.Registry
	// Calib, when non-nil, runs synchronously after every install that
	// makes a new model version current — uploads, rollbacks, calibrations
	// and refits — with that version (cmd/coted persists the registry
	// there).
	Calib func(*calib.ModelVersion)
	// BudgetFactor, when positive, arms the mid-flight budget abort on
	// POST /v1/optimize: a compile generating more than BudgetFactor times
	// its COTE-predicted plan count is aborted (and downgraded to the next
	// cheaper level when Downgrade is set) — the enforcement backstop for
	// when the prediction admission trusted turns out wrong. Requires a
	// calibrated model to have any effect. Zero disables the abort.
	BudgetFactor float64
	// MemBudget, when positive, bounds each compile's peak optimizer memory
	// in bytes, twice over: admission gates on the memory model's predicted
	// peak (reject or downgrade like the time budget), and an admitted
	// compile whose measured usage crosses the budget is aborted mid-flight
	// (and downgraded when Downgrade is set). Zero disables both.
	MemBudget int64
	// ShedDeadline is the safety margin of deadline-aware shedding: a
	// request whose remaining deadline is below the projected queue wait
	// plus this margin is shed immediately instead of queued to die (zero
	// keeps the check armed with no margin; shedding then triggers only
	// when the projected wait alone exceeds the deadline).
	ShedDeadline time.Duration
}

// DefaultRequestTimeout bounds estimate/optimize requests when Config
// leaves RequestTimeout zero.
const DefaultRequestTimeout = 30 * time.Second

// Server is the estimation service: the registry, pool, cache, metrics and
// model behind the HTTP API. Its exported request methods are usable
// without HTTP (the benchmarks drive them directly).
type Server struct {
	cfg      Config
	registry *Registry
	pool     *Pool
	shed     *Shedder
	cache    *EstimateCache
	metrics  *Metrics
	progress *progressTable

	// models is the versioned compilation-time model registry; calib is
	// the online loop feeding it from real optimizations.
	models *calib.Registry
	calib  *calib.Calibrator

	// Test seams on the statement arena's lifetime, nil in production:
	// arenaReleased sees every arena a request gives back to the pool, and
	// missStarted runs as an estimate miss takes its slot, before the
	// canonical rebuild carves from the arena.
	arenaReleased func(a *query.Arena)
	missStarted   func()
}

// New returns a server with the config's defaults filled in. The budget
// knob clamps (disabling at zero) go through internal/knobs — the same
// defaulting path the optimizer layers use.
func New(cfg Config) *Server {
	cfg.BudgetFactor = knobs.BudgetFactor(cfg.BudgetFactor)
	cfg.MemBudget = knobs.MemBudget(cfg.MemBudget)
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Workers
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 1024
	}
	models := cfg.Models
	if models == nil {
		models = calib.NewRegistry()
	}
	pool := NewPool(cfg.Workers, cfg.Queue)
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(),
		pool:     pool,
		shed:     newShedder(pool, cfg.ShedDeadline),
		cache:    NewEstimateCache(cfg.CacheCapacity),
		metrics:  NewMetrics(),
		progress: newProgressTable(),
		models:   models,
		calib:    calib.NewCalibrator(models, cfg.Calib),
	}
	return s
}

// Registry exposes the catalog registry (cmd/coted preloads schemas).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics exposes the metrics (tests assert on them).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Workers is the worker pool size the server resolved from Config.Workers.
func (s *Server) Workers() int { return s.pool.Workers() }

// Model returns the current compilation-time model (nil before
// calibration).
func (s *Server) Model() *core.TimeModel { return s.models.CurrentModel() }

// installModel installs a model version and publishes it. The
// fault-injection point sits before the registry swap: a tripped install
// changes nothing — no version, no metrics tick, no persistence — exactly
// like a registry whose durable step refused.
func (s *Server) installModel(m *core.TimeModel, source string, samples int, fitErr float64) (*calib.ModelVersion, error) {
	if err := faultinject.Check(faultinject.PointModelSwap); err != nil {
		return nil, err
	}
	v := s.models.Install(m, source, samples, fitErr)
	s.publishModel(v)
	return v, nil
}

// publishModel mirrors a version the server made current into the metrics
// and the configured swap hook, so -model-file persistence sees every
// install and rollback. Refits run the hook through the calibrator.
func (s *Server) publishModel(v *calib.ModelVersion) {
	s.metrics.ModelInstalls.Add()
	if s.cfg.Calib != nil {
		s.cfg.Calib(v)
	}
}

// Calibrator exposes the online calibration loop (cmd/coted wires its
// persistence hook; tests assert on its stats).
func (s *Server) Calibrator() *calib.Calibrator { return s.calib }

// Models exposes the versioned model registry.
func (s *Server) Models() *calib.Registry { return s.models }

// ParseLevel maps the wire names to optimization levels; the empty string
// selects inner2, the level the paper's experiments run at.
func ParseLevel(name string) (opt.Level, error) {
	switch name {
	case "", "inner2":
		return opt.LevelHighInner2, nil
	case "low", "greedy":
		return opt.LevelLow, nil
	case "leftdeep":
		return opt.LevelMediumLeftDeep, nil
	case "zigzag":
		return opt.LevelMediumZigZag, nil
	case "high":
		return opt.LevelHigh, nil
	}
	return 0, fmt.Errorf("service: unknown level %q (want low, leftdeep, zigzag, inner2 or high)", name)
}

// LevelName is the wire name of a level (the inverse of ParseLevel).
func LevelName(l opt.Level) string {
	switch l {
	case opt.LevelLow:
		return "low"
	case opt.LevelMediumLeftDeep:
		return "leftdeep"
	case opt.LevelMediumZigZag:
		return "zigzag"
	case opt.LevelHighInner2:
		return "inner2"
	case opt.LevelHigh:
		return "high"
	}
	return l.String()
}

// CalibrateRequest is the body of POST /v1/calibrate: fit the time model
// on a named built-in workload.
type CalibrateRequest struct {
	// Workload is one of linear, star, random, real1, real2, tpch.
	Workload string `json:"workload"`
	// Nodes selects the serial (1, default) or 4-node parallel variant.
	Nodes int `json:"nodes,omitempty"`
}

// CalibrateResponse reports the fitted model.
type CalibrateResponse struct {
	Workload string `json:"workload"`
	Points   int    `json:"points"`
	Model    string `json:"model"`
}

// Calibrate compiles a named workload for real at two levels, fits the
// per-method constants (modelio.TrainOn), and installs the model for
// admission control and predictions. The compilations run through the
// worker pool one query at a time, so a calibration shares the process
// fairly with serving traffic.
func (s *Server) Calibrate(ctx context.Context, req CalibrateRequest) (*CalibrateResponse, error) {
	s.metrics.CalibrateRequests.Add()
	nodes := req.Nodes
	if nodes == 0 {
		nodes = 1
	}
	if err := modelio.CheckNodes(nodes); err != nil {
		return nil, badRequest("%v", err)
	}
	w, err := modelio.NamedWorkload(req.Workload, nodes)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	// A compile error keeps its own class (timeout, queue full, fault); only
	// a failed fit is the request's fault.
	var compileErr error
	model, points, err := modelio.TrainOn(w, nodes, func(blk *query.Block, o opt.Options) (*opt.Result, error) {
		res, err := Run(s.pool, ctx, func() (*opt.Result, error) { return opt.OptimizeCtx(ctx, blk, o) })
		compileErr = err
		return res, err
	})
	if err != nil {
		if compileErr != nil {
			return nil, err
		}
		return nil, badRequest("calibration failed: %v", err)
	}
	if _, err := s.installModel(model, "calibrate", points, 0); err != nil {
		return nil, err
	}
	return &CalibrateResponse{Workload: w.Name, Points: points, Model: model.String()}, nil
}

// --- HTTP layer ---

// Handler returns the HTTP API:
//
//	POST /v1/estimate       estimate a query's compilation
//	POST /v1/optimize       optimize behind admission control
//	POST /v1/calibrate      fit the time model on a named workload
//	GET  /v1/model          current model version + drift
//	POST /v1/model          install a model or roll back to a version
//	GET  /v1/model/history  retained model versions
//	GET  /v1/catalogs       list registered catalogs
//	POST /v1/catalogs       upload a JSON catalog
//	GET  /v1/progress       live progress of in-flight optimizations
//	GET  /metrics           JSON metrics snapshot
//	GET  /healthz           liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", post(s, s.Estimate, nil))
	mux.HandleFunc("POST /v1/estimate/batch", post(s, s.EstimateBatch, nil))
	mux.HandleFunc("POST /v1/optimize", post(s, s.Optimize, func(resp *OptimizeResponse) int {
		if resp.Admission != nil && resp.Admission.Action == AdmitReject {
			return http.StatusTooManyRequests
		}
		return http.StatusOK
	}))
	mux.HandleFunc("POST /v1/calibrate", post(s, s.Calibrate, nil))
	mux.HandleFunc("GET /v1/model", s.handleModelGet)
	mux.HandleFunc("POST /v1/model", post(s, s.UpdateModel, nil))
	mux.HandleFunc("GET /v1/model/history", s.handleModelHistory)
	mux.HandleFunc("GET /v1/catalogs", s.handleCatalogList)
	mux.HandleFunc("POST /v1/catalogs", post(s, s.uploadCatalog, func(CatalogInfo) int { return http.StatusCreated }))
	mux.HandleFunc("GET /v1/progress", s.handleProgress)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// maxBodyBytes bounds request bodies (catalog uploads included).
const maxBodyBytes = 1 << 20

// post is the handler behind every POST endpoint: decode the JSON body into
// a Req, call the endpoint, and write its response under the status the
// endpoint's status function picks (nil: 200 OK) or its error through the
// taxonomy. The body must be exactly one JSON value with known fields.
func post[Req, Resp any](s *Server, call func(context.Context, Req) (Resp, error), status func(Resp) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		// Decode stops after the first value; only whitespace may follow.
		if _, terr := dec.Token(); err == nil && terr != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
		if err != nil {
			s.writeError(w, badRequest("body: %v", err))
			return
		}
		resp, err := call(r.Context(), req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		code := http.StatusOK
		if status != nil {
			code = status(resp)
		}
		s.writeJSON(w, code, resp)
	}
}

// writeJSON encodes v into a pooled buffer (wire.go) and only then commits
// the status, so a value that cannot be encoded answers 500 internal
// instead of its own status with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	bp := bodyPool.Get().(*[]byte)
	b, err := appendBody((*bp)[:0], v)
	if err == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		// A failed write means the client went away; there is no one left
		// to tell.
		_, _ = w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyPool.Put(bp)
	}
	if err != nil {
		s.writeError(w, fmt.Errorf("encode response: %w", err))
	}
}

// writeError maps service errors through the taxonomy (see errors.go) to an
// HTTP status, a machine-readable code, and — for retryable overload classes
// — a Retry-After hint.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.metrics.Errors.Add()
	status, code, retryAfter := classify(err)
	switch code {
	case CodeQueueFull:
		s.metrics.QueueRejected.Add()
	case CodeTimeout:
		s.metrics.Timeouts.Add()
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	}
	s.writeJSON(w, status, ErrorBody{Error: err.Error(), Code: code})
}

func (s *Server) handleCatalogList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"catalogs": s.registry.List()})
}

// uploadCatalog registers an uploaded catalog (POST /v1/catalogs).
func (s *Server) uploadCatalog(_ context.Context, def CatalogDef) (CatalogInfo, error) {
	entry, err := s.registry.Register(def)
	if err != nil {
		// Schema problems are the client's fault (400); an injected
		// registration fault is the server's (503 dependency_fault) and must
		// not be laundered into a bad request.
		if !errors.Is(err, faultinject.ErrInjected) {
			err = badRequest("%v", err)
		}
		return CatalogInfo{}, err
	}
	s.metrics.CatalogUploads.Add()
	return entry.info(), nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.pool, s.cache, s.calib, s.shed))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
