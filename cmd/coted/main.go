// Command coted runs the compilation-time estimation service: a
// long-running HTTP/JSON daemon wrapping the cote library with a catalog
// registry, a bounded worker pool, an LRU estimate cache, MOP-driven
// admission control and a metrics endpoint.
//
// Usage:
//
//	coted [-addr :8334] [-workers N] [-queue N] [-timeout 30s]
//	      [-cache 1024] [-budget 0] [-budget-factor 0] [-mem-budget 0]
//	      [-downgrade] [-shed-deadline 0]
//	      [-calibrate workload] [-model-file cote-model.json]
//	      [-grace 10s] [-pprof] [-fault-plan SPEC]
//
// Endpoints: POST /v1/estimate, POST /v1/optimize, POST /v1/calibrate,
// GET/POST /v1/model, GET /v1/model/history, GET/POST /v1/catalogs,
// GET /v1/progress, GET /metrics, GET /healthz, and — with -pprof —
// GET /debug/pprof/*. See the README's "Running the coted server" section
// for curl examples.
//
// The daemon starts with the model in -model-file, else a -calibrate fit,
// else the release model, each with the Tinst it was saved with (1e-9 for
// the release), and -budget admission prices with that scale until a refit.
// Every real optimization feeds the drift detector; when the mean relative
// prediction error over the last 32 compiles crosses 0.5 the scale of the
// model's Ct and its C0 are refitted over the window and installed as a new
// registry version (rolled back via POST /v1/model, which also forces a
// refit with {"recalibrate": true}). With -model-file the registry persists
// across restarts.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting,
// lets in-flight requests drain for half the -grace period, then cancels
// the remaining optimizations through their execution contexts and waits
// out the rest of the grace period before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"cote/internal/calib"
	"cote/internal/faultinject"
	"cote/internal/modelio"
	"cote/internal/service"
)

func main() {
	addr := flag.String("addr", ":8334", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting for a worker; arrivals beyond it are shed with 429 + Retry-After (0 = 4x workers)")
	timeout := flag.Duration("timeout", 0, "per-request timeout (0 = 30s, negative = none)")
	cacheCap := flag.Int("cache", 1024, "estimate cache capacity (entries, keyed by catalog epoch + structural fingerprint + level)")
	budget := flag.Duration("budget", 0, "admission budget: reject/downgrade optimizations predicted to compile longer than this (0 = off)")
	budgetFactor := flag.Float64("budget-factor", 0, "abort a compile whose generated plans overrun the prediction by this factor (0 = off)")
	memBudget := flag.Int64("mem-budget", 0, "peak optimizer memory budget in bytes: reject/downgrade optimizations predicted to exceed it and abort compiles that measurably do (0 = off)")
	downgrade := flag.Bool("downgrade", false, "downgrade over-budget optimizations to a cheaper level instead of rejecting")
	shedDeadline := flag.Duration("shed-deadline", 0, "shed requests whose deadline is within this margin of the projected queue wait (0 = no margin, deadline check still armed)")
	faultPlan := flag.String("fault-plan", "", "activate a deterministic fault-injection plan, e.g. 'seed=42;pool.acquire:error,p=0.1' (chaos testing; see internal/faultinject)")
	grace := flag.Duration("grace", 10*time.Second, "graceful-shutdown window; in-flight work is cancelled halfway through")
	pprofFlag := flag.Bool("pprof", false, "expose /debug/pprof endpoints for profiling")
	var mf modelio.Flags
	mf.Register(flag.CommandLine)
	flag.Parse()

	_, reg, err := mf.Resolve(1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coted: %v\n", err)
		os.Exit(1)
	}
	v := reg.Current()
	log.Printf("model v%d (%s): %v", v.Version, v.Source, v.Model)
	// persist saves every installed version (refits, uploads, rollbacks)
	// back to -model-file; the mutex keeps concurrent swaps from racing the
	// temp-file rename.
	var persistMu sync.Mutex
	persist := func(v *calib.ModelVersion) {
		if mf.ModelFile == "" {
			return
		}
		persistMu.Lock()
		defer persistMu.Unlock()
		if err := mf.Save(reg); err != nil {
			log.Printf("warning: persisting model registry: %v", err)
		} else {
			log.Printf("model v%d (%s) persisted to %s", v.Version, v.Source, mf.ModelFile)
		}
	}

	cfg := service.Config{
		Workers:        *workers,
		Queue:          *queue,
		RequestTimeout: *timeout,
		CacheCapacity:  *cacheCap,
		Budget:         *budget,
		BudgetFactor:   *budgetFactor,
		MemBudget:      *memBudget,
		Downgrade:      *downgrade,
		ShedDeadline:   *shedDeadline,
		Models:         reg,
		Calib:          persist,
	}
	srv := service.New(cfg)

	if *faultPlan != "" {
		plan, err := faultinject.ParsePlan(*faultPlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coted: -fault-plan: %v\n", err)
			os.Exit(1)
		}
		faultinject.Activate(plan)
		log.Printf("fault plan active (seed=%d): %s", plan.Seed, *faultPlan)
	}

	persist(v)

	handler := srv.Handler()
	if *pprofFlag {
		handler = withPprof(handler)
		log.Print("pprof enabled at /debug/pprof/")
	}

	// Every request context derives from appCtx, so appCancel reaches the
	// execution context of every in-flight optimization — cancelling them
	// cooperatively is what makes a bounded shutdown possible at all.
	appCtx, appCancel := context.WithCancel(context.Background())
	defer appCancel()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(handler),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return appCtx },
	}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		gracePeriod := *grace
		if gracePeriod <= 0 {
			gracePeriod = time.Second
		}
		log.Printf("shutting down (grace %v) ...", gracePeriod)
		// Stop accepting and give in-flight requests half the grace window
		// to drain on their own; then cancel whatever is still running via
		// the shared base context and wait out the rest.
		halfway := time.AfterFunc(gracePeriod/2, func() {
			log.Print("grace half over; cancelling in-flight optimizations ...")
			appCancel()
		})
		defer halfway.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), gracePeriod)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()

	log.Printf("coted listening on %s (workers=%d)", *addr, srv.Workers())
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "coted: %v\n", err)
		os.Exit(1)
	}
	// ListenAndServe returns the moment Shutdown closes the listeners; the
	// drain (and the mid-grace cancellation) is still in progress.
	<-drained
	log.Print("bye")
}

// withPprof mounts the net/http/pprof handlers on the service mux. The
// service uses its own mux, so the profile endpoints are registered here
// explicitly instead of relying on the package's DefaultServeMux side
// effects.
func withPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}

// logRequests logs one line per request: method, path, status, duration.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		log.Printf("%s %s -> %d (%v)", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
