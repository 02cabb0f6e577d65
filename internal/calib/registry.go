package calib

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cote/internal/core"
)

// DefaultRetain bounds how many model versions the registry keeps when no
// retention is configured.
const DefaultRetain = 16

// ModelVersion is one immutable snapshot in the registry: a model, its
// monotonically increasing version number, and the provenance that tells an
// operator why it exists. Neither the snapshot nor its model is mutated
// after Install, so readers may hold them without locks.
type ModelVersion struct {
	// Version is process-monotonic: every Install (rollbacks included)
	// advances it, so "which model priced this request" is always a single
	// comparable number.
	Version int `json:"version"`
	// Model is the snapshot itself.
	Model *core.TimeModel `json:"model"`
	// Mem is the memory model paired with this version (nil until one was
	// installed: an offline fit, loaded from a -model-file or passed to
	// InstallMem). Plain time-model installs carry the incumbent memory
	// model forward, so both stay behind one version number.
	Mem *core.MemModel `json:"mem_model,omitempty"`
	// Source records provenance: "seed", "calibrate", "recalibrate", "api",
	// "file", or "rollback(vN)".
	Source string `json:"source"`
	// Samples is the observation count the fit used (zero for installs that
	// did not come from a fit).
	Samples int `json:"samples,omitempty"`
	// FitErr is the model's mean relative error over the window it was
	// fitted on (zero when unknown).
	FitErr float64 `json:"fit_err,omitempty"`
	// InstalledUnixMS is the wall-clock install time, for operators; no
	// logic depends on it.
	InstalledUnixMS int64 `json:"installed_unix_ms,omitempty"`
}

// Registry is the versioned model store: the current model sits behind an
// atomic pointer (the read path — every estimate — is a single load), while
// installs, history and rollback serialize on a mutex. It implements
// core.ModelProvider.
type Registry struct {
	cur atomic.Pointer[ModelVersion]

	mu      sync.Mutex
	history []*ModelVersion // ascending version order, bounded by retain
	retain  int
	lastVer int
}

// NewRegistry returns an empty registry retaining at most retain versions
// (DefaultRetain when retain <= 0). An empty registry provides a nil model.
func NewRegistry(retain int) *Registry {
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Registry{retain: retain}
}

// CurrentModel returns the current model, nil while the registry is empty.
// This is the core.ModelProvider hot path: one atomic load.
func (r *Registry) CurrentModel() *core.TimeModel {
	if v := r.cur.Load(); v != nil {
		return v.Model
	}
	return nil
}

// CurrentMemModel returns the current memory model, nil until one was
// installed. This is core.ModelProvider's other hot path: one atomic load.
func (r *Registry) CurrentMemModel() *core.MemModel {
	if v := r.cur.Load(); v != nil {
		return v.Mem
	}
	return nil
}

// Current returns the current version snapshot (nil while empty).
func (r *Registry) Current() *ModelVersion { return r.cur.Load() }

// Version returns the current version number, zero while empty.
func (r *Registry) Version() int {
	if v := r.cur.Load(); v != nil {
		return v.Version
	}
	return 0
}

// Install snapshots m as the new current model and returns its version.
// The model must not be mutated by the caller afterwards. The incumbent
// memory model, if any, is carried forward unchanged.
func (r *Registry) Install(m *core.TimeModel, source string, samples int, fitErr float64) *ModelVersion {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.installLocked(m, nil, source, samples, fitErr)
}

// InstallMem snapshots mem as the new current memory model, carrying the
// incumbent time model forward as a new version. mem must not be mutated by
// the caller afterwards.
func (r *Registry) InstallMem(mem *core.MemModel, source string, samples int) *ModelVersion {
	r.mu.Lock()
	defer r.mu.Unlock()
	var tm *core.TimeModel
	var fitErr float64
	if cur := r.cur.Load(); cur != nil {
		tm, fitErr = cur.Model, cur.FitErr
	}
	v := r.installLocked(tm, mem, source, samples, fitErr)
	return v
}

// installLocked installs a new version. mem, when nil, inherits the
// incumbent's memory model — versions snapshot both models even when only
// one was refit.
func (r *Registry) installLocked(m *core.TimeModel, mem *core.MemModel, source string, samples int, fitErr float64) *ModelVersion {
	if mem == nil {
		if prev := r.cur.Load(); prev != nil {
			mem = prev.Mem
		}
	}
	r.lastVer++
	v := &ModelVersion{
		Version:         r.lastVer,
		Model:           m,
		Mem:             mem,
		Source:          source,
		Samples:         samples,
		FitErr:          fitErr,
		InstalledUnixMS: time.Now().UnixMilli(),
	}
	r.history = append(r.history, v)
	if len(r.history) > r.retain {
		r.history = append(r.history[:0], r.history[len(r.history)-r.retain:]...)
	}
	r.cur.Store(v)
	return v
}

// History returns the retained versions, oldest first (the current one
// last).
func (r *Registry) History() []*ModelVersion {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*ModelVersion(nil), r.history...)
}

// Get returns a retained version by number.
func (r *Registry) Get(version int) (*ModelVersion, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.history {
		if v.Version == version {
			return v, true
		}
	}
	return nil, false
}

// Rollback reinstates a retained version's model as a new current version
// (versions only ever advance; the rollback is itself history). It returns
// the new version, or an error when the requested version is no longer
// retained.
func (r *Registry) Rollback(version int) (*ModelVersion, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.history {
		if v.Version == version {
			var tm *core.TimeModel
			if v.Model != nil {
				cp := *v.Model
				tm = &cp
			}
			var mem *core.MemModel
			if v.Mem != nil {
				mcp := *v.Mem
				mem = &mcp
			}
			return r.installLocked(tm, mem, fmt.Sprintf("rollback(v%d)", version), v.Samples, v.FitErr), nil
		}
	}
	return nil, fmt.Errorf("calib: version %d not retained (have %d..%d)", version, r.oldestLocked(), r.lastVer)
}

func (r *Registry) oldestLocked() int {
	if len(r.history) == 0 {
		return 0
	}
	return r.history[0].Version
}
