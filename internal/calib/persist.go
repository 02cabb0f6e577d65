package calib

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// registryFile is the on-disk JSON form of a registry (-model-file): the
// retained versions and the current version number. Files written before
// the models kept their Tinst as saved carry a host_tinst key, which
// decoding skips as an unknown field.
type registryFile struct {
	// Current is the version number of the current model.
	Current int `json:"current"`
	// Versions are the retained snapshots, oldest first.
	Versions []*ModelVersion `json:"versions"`
}

// Save writes the registry to path atomically (temp file + rename). A
// failed save leaves the registry, the file at path and the directory as
// they were; coted logs it and keeps serving the swapped model.
func (r *Registry) Save(path string) error {
	r.mu.Lock()
	f := registryFile{
		Current:  r.lastVer,
		Versions: append([]*ModelVersion(nil), r.history...),
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

// Load reads a registry from path, every model as saved: the online refit,
// not the load, fits a model's scale to this host. Only the newest Retain
// versions are kept. A version without a time model, or with one that
// core.TimeModel.Validate refuses, fails the load with an error naming the
// version.
//
// A missing file is not an error: Load returns an empty registry so callers
// can treat -model-file as "create on first save".
func Load(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewRegistry(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("calib: load registry: %w", err)
	}
	r, err := decode(data)
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
// parallel set otherwise) as a one-version registry, at the nominal Tinst
// of 1e-9 it was fitted at.
func Release(nodes int) (*Registry, error) {
	data := releaseSerial
	if nodes > 1 {
		data = releaseParallel
	}
	r, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("calib: release registry: %w", err)
	}
	return r, nil
}

// decode builds a registry from a registry file's bytes; see Load.
func decode(data []byte) (*Registry, error) {
	var f registryFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	r := NewRegistry()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, v := range f.Versions {
		if v == nil {
			return nil, fmt.Errorf("version entry %d is empty", i)
		}
		if v.Model == nil {
			return nil, fmt.Errorf("version %d has no time model", v.Version)
		}
		if err := v.Model.Validate(); err != nil {
			return nil, fmt.Errorf("version %d: model: %w", v.Version, err)
		}
		r.history = append(r.history, v)
		if v.Version > r.lastVer {
			r.lastVer = v.Version
		}
	}
	if len(r.history) > Retain {
		r.history = append(r.history[:0], r.history[len(r.history)-Retain:]...)
	}
	// The current version is a retained one: a file whose current pointer
	// is stale, or names a version past the retention bound, yields its
	// newest retained model rather than none.
	var cur *ModelVersion
	for _, v := range r.history {
		if v.Version == f.Current {
			cur = v
		}
	}
	if cur == nil && len(r.history) > 0 {
		cur = r.history[len(r.history)-1]
	}
	if cur != nil {
		r.cur.Store(cur)
	}
	return r, nil
}
