// Package modelio is the model-file and calibration plumbing shared by the
// cote commands (coted, mop, explain): one flag set for loading a versioned
// model registry from disk (-model-file, every model as saved), calibrating
// on a named built-in workload (-calibrate), or else taking the shipped
// release model, so a new model flag lands in one place instead of three.
// The node-count check and the workload and configuration tables the
// commands and the daemon share live here too.
package modelio

import (
	"flag"
	"fmt"

	"cote/internal/calib"
	"cote/internal/core"
	"cote/internal/cost"
	"cote/internal/opt"
	"cote/internal/query"
	"cote/internal/workload"
)

// WorkloadNames lists the built-in calibration workloads for flag help and
// error messages.
const WorkloadNames = "linear, star, random, real1, real2, tpch"

// CheckNodes refuses a node count other than the two the workloads, the
// cost configurations and the release models exist for: 1 (serial) and 4
// (the paper's parallel setup).
func CheckNodes(nodes int) error {
	if nodes != 1 && nodes != 4 {
		return fmt.Errorf("nodes must be 1 or 4, got %d", nodes)
	}
	return nil
}

// NamedWorkload builds a built-in workload by wire name; nodes selects the
// serial (1) or 4-node parallel variant. Each call builds fresh query
// blocks, so concurrent users never share state.
func NamedWorkload(name string, nodes int) (*workload.Workload, error) {
	switch name {
	case "linear":
		return workload.Linear(nodes), nil
	case "star":
		return workload.Star(nodes), nil
	case "random":
		return workload.Random(42, 12, 10, nodes), nil
	case "real1":
		return workload.Real1(nodes), nil
	case "real2":
		return workload.Real2(nodes), nil
	case "tpch":
		return workload.TPCH(nodes), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, WorkloadNames)
}

// TrainOn compiles a workload for real at two optimization levels
// (decorrelating the per-method counts) and fits the time model, returning
// it with the observation count. Each observation compiles its query twice,
// untimed and timed (core.TrainingObservation). compile runs each
// compilation: the commands pass opt.Optimize, the daemon a wrapper that
// schedules it on its worker pool. A compile error comes back wrapped with
// the query's name.
func TrainOn(w *workload.Workload, nodes int, compile func(*query.Block, opt.Options) (*opt.Result, error)) (*core.TimeModel, int, error) {
	cfg := ConfigFor(nodes)
	var training []core.CompileObservation
	for _, q := range w.Queries {
		for _, level := range []opt.Level{opt.LevelHighInner2, opt.LevelMediumLeftDeep} {
			o, err := core.TrainingObservation(func(o opt.Options) (*opt.Result, error) { return compile(q.Block, o) },
				opt.Options{Level: level, Config: cfg})
			if err != nil {
				return nil, 0, fmt.Errorf("calibrate %s: %w", q.Name, err)
			}
			training = append(training, o)
		}
	}
	m, err := core.Calibrate(training)
	if err != nil {
		return nil, 0, err
	}
	return m, len(training), nil
}

// Flags bundles the model flags every command shares. Register them on the
// command's flag set, parse, then Resolve.
type Flags struct {
	// ModelFile is -model-file: a JSON model registry, loaded at startup
	// and (for the daemon) rewritten on every model change. Missing files
	// are created on first save.
	ModelFile string
	// Calibrate is -calibrate: a named workload to fit a model on at
	// startup when -model-file holds none.
	Calibrate string
}

// Register installs -model-file and -calibrate on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.ModelFile, "model-file", "",
		"JSON model-registry file: loaded at startup, every model as saved, and persisted on model changes")
	fs.StringVar(&f.Calibrate, "calibrate", "",
		"calibrate the time model on this workload at startup when -model-file holds none ("+WorkloadNames+"; empty = the release model)")
}

// Save persists the registry back to -model-file; a no-op when the flag is
// unset.
func (f *Flags) Save(reg *calib.Registry) error {
	if f.ModelFile == "" {
		return nil
	}
	return reg.Save(f.ModelFile)
}

// Resolve yields the model a command prices with and the registry holding
// it, from the first of: the current model in -model-file; a fit on the
// -calibrate workload; the release model for nodes (calib.Release). A fit or
// release model is installed into the -model-file registry (an empty one
// without the flag). File and release models keep the Tinst they were saved
// with; the online refit fits their scale to this host. The registry is
// returned so the command can Save it.
func (f *Flags) Resolve(nodes int) (*core.TimeModel, *calib.Registry, error) {
	reg := calib.NewRegistry()
	if f.ModelFile != "" {
		var err error
		if reg, err = calib.Load(f.ModelFile); err != nil {
			return nil, nil, err
		}
		if m := reg.CurrentModel(); m != nil {
			return m, reg, nil
		}
	}
	var m *core.TimeModel
	source, points := "release", 0
	if f.Calibrate == "" {
		rel, err := calib.Release(nodes)
		if err != nil {
			return nil, nil, err
		}
		m = rel.CurrentModel()
	} else {
		w, err := NamedWorkload(f.Calibrate, nodes)
		if err != nil {
			return nil, nil, err
		}
		if m, points, err = TrainOn(w, nodes, opt.Optimize); err != nil {
			return nil, nil, err
		}
		source = "calibrate"
	}
	reg.Install(m, source, points, 0)
	return m, reg, nil
}

// ConfigFor maps a node count to the cost configuration, mirroring the
// workload constructors' serial/parallel split.
func ConfigFor(nodes int) *cost.Config {
	if nodes > 1 {
		return cost.Parallel4
	}
	return cost.Serial
}
