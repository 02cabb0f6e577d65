package service

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"cote/internal/optctx"
)

// progressTable tracks in-flight optimize requests so GET /v1/progress can
// render each one's live meter: the execution context's generated-plan
// counter over the COTE-predicted total (the paper's Section 6 progress
// application, served over HTTP). Entries exist from admission until the
// compile returns, queueing included.
type progressTable struct {
	mu     sync.Mutex
	nextID int64
	runs   map[int64]*progressRun
	// hooks are installed on every tracked compile's execution context. The
	// server sets none; a test sets them before its first request to act
	// from inside a running compile.
	hooks optctx.Hooks
}

type progressRun struct {
	id      int64
	catalog string
	level   string
	started time.Time
	oc      *optctx.Ctx
}

func newProgressTable() *progressTable {
	return &progressTable{runs: make(map[int64]*progressRun)}
}

// add registers one in-flight run and returns its handle for remove.
func (t *progressTable) add(catalog, level string, oc *optctx.Ctx) *progressRun {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	r := &progressRun{id: t.nextID, catalog: catalog, level: level, started: time.Now(), oc: oc}
	t.runs[r.id] = r
	return r
}

func (t *progressTable) remove(r *progressRun) {
	t.mu.Lock()
	delete(t.runs, r.id)
	t.mu.Unlock()
}

// ProgressInfo is one in-flight optimization in GET /v1/progress.
type ProgressInfo struct {
	ID        int64  `json:"id"`
	Catalog   string `json:"catalog"`
	Level     string `json:"level"`
	ElapsedMS int64  `json:"elapsed_ms"`
	// Generated and Predicted are the progress meter: join plans generated
	// so far over the COTE-predicted total (0 when no model is installed).
	Generated int64 `json:"generated"`
	Predicted int64 `json:"predicted"`
	// Percent is 100*generated/predicted clamped to [0, 100], or -1 when no
	// prediction is available.
	Percent float64 `json:"percent"`
	// Stages breaks the run's work down by compilation stage: each stage's
	// count, and its time_us when the stage is timed (optctx.Stage.Timed).
	Stages map[string]map[string]int64 `json:"stages"`
}

// snapshot renders every in-flight run, oldest first.
func (t *progressTable) snapshot() []ProgressInfo {
	t.mu.Lock()
	runs := make([]*progressRun, 0, len(t.runs))
	for _, r := range t.runs {
		runs = append(runs, r)
	}
	t.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })

	out := make([]ProgressInfo, 0, len(runs))
	for _, r := range runs {
		gen, pred := r.oc.Progress()
		pct := r.oc.Fraction()
		if pct >= 0 {
			pct *= 100
		}
		info := ProgressInfo{
			ID:        r.id,
			Catalog:   r.catalog,
			Level:     r.level,
			ElapsedMS: time.Since(r.started).Milliseconds(),
			Generated: gen,
			Predicted: pred,
			Percent:   pct,
			Stages:    make(map[string]map[string]int64, optctx.NumStages),
		}
		for s, st := range r.oc.StageSnapshot() {
			info.Stages[optctx.Stage(s).String()] = stageFields(optctx.Stage(s), st.Count, st.Time.Microseconds())
		}
		out = append(out, info)
	}
	return out
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"in_flight": s.progress.snapshot()})
}
