package calib

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"cote/internal/faultinject"
)

// registryFile is the on-disk JSON form of a registry (-model-file): the
// retained versions, the current version number, and the host's measured
// Tinst at save time so a file moved between machines can be rescaled to
// the loading host's speed.
type registryFile struct {
	// HostTinst is MeasureTinst() on the saving host (seconds per abstract
	// instruction). Zero means unknown — no rescaling on load.
	HostTinst float64 `json:"host_tinst,omitempty"`
	// Current is the version number of the current model.
	Current int `json:"current"`
	// Versions are the retained snapshots, oldest first.
	Versions []*ModelVersion `json:"versions"`
}

// Save writes the registry to path atomically (temp file + rename).
// hostTinst, when positive, is recorded so a later load on a different
// machine can rescale predictions; pass MeasureTinst() or zero.
func (r *Registry) Save(path string, hostTinst float64) error {
	// Persistence is a real disk dependency; a chaos plan fails it here so
	// the -model-file warning path (persist fails, registry swap survives)
	// is actually exercised.
	if err := faultinject.Check(faultinject.PointModelPersist); err != nil {
		return fmt.Errorf("calib: save registry: %w", err)
	}
	r.mu.Lock()
	f := registryFile{
		HostTinst: hostTinst,
		Current:   r.lastVer,
		Versions:  append([]*ModelVersion(nil), r.history...),
	}
	if cur := r.cur.Load(); cur != nil {
		f.Current = cur.Version
	}
	r.mu.Unlock()

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("calib: marshal registry: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".model-*.json")
	if err != nil {
		return fmt.Errorf("calib: save registry: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("calib: save registry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("calib: save registry: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("calib: save registry: %w", err)
	}
	return nil
}

// Load reads a registry from path. hostTinst, when positive and the file
// records the saving host's Tinst, rescales every model's Tinst by
// hostTinst/saved — the paper's machine-dependent constant re-pinned to the
// loading machine, so a registry trained on one host predicts sensibly on
// another. retain bounds the restored history as in NewRegistry.
//
// A missing file is not an error: Load returns an empty registry so callers
// can treat -model-file as "create on first save".
func Load(path string, retain int, hostTinst float64) (*Registry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewRegistry(retain), nil
	}
	if err != nil {
		return nil, fmt.Errorf("calib: load registry: %w", err)
	}
	r, err := decode(data, retain, hostTinst)
	if err != nil {
		return nil, fmt.Errorf("calib: load registry %s: %w", path, err)
	}
	return r, nil
}

// The release's measured Ct proportions, one registry file per
// configuration, each holding one version with source "release". They are
// written by `go test ./internal/calib -run TestReleaseModels -update`.
var (
	//go:embed release_serial.json
	releaseSerial []byte
	//go:embed release_parallel.json
	releaseParallel []byte
)

// Release returns the release model for nodes (serial for 1, the 4-node
// parallel set otherwise) as a one-version registry, its Tinst rescaled to
// hostTinst as Load rescales a file.
func Release(nodes int, hostTinst float64) (*Registry, error) {
	data := releaseSerial
	if nodes > 1 {
		data = releaseParallel
	}
	r, err := decode(data, 0, hostTinst)
	if err != nil {
		return nil, fmt.Errorf("calib: release registry: %w", err)
	}
	return r, nil
}

// decode builds a registry from a registry file's bytes; see Load.
func decode(data []byte, retain int, hostTinst float64) (*Registry, error) {
	var f registryFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	scale := 1.0
	if hostTinst > 0 && f.HostTinst > 0 {
		scale = hostTinst / f.HostTinst
	}
	r := NewRegistry(retain)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range f.Versions {
		if v == nil || (v.Model == nil && v.Mem == nil) {
			return nil, errors.New("version entry without a model")
		}
		if scale != 1 && v.Model != nil {
			m := *v.Model
			m.Tinst *= scale
			v.Model = &m
		}
		r.history = append(r.history, v)
		if v.Version > r.lastVer {
			r.lastVer = v.Version
		}
		if v.Version == f.Current {
			r.cur.Store(v)
		}
	}
	if len(r.history) > r.retain {
		r.history = append(r.history[:0], r.history[len(r.history)-r.retain:]...)
	}
	if r.cur.Load() == nil && len(r.history) > 0 {
		// A file whose current pointer is stale still yields its newest
		// retained model rather than none.
		r.cur.Store(r.history[len(r.history)-1])
	}
	return r, nil
}
