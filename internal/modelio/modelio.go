// Package modelio is the model-file and calibration plumbing shared by the
// cote commands (coted, mop, explain, cotebench): one flag set for loading
// a versioned model registry from disk (-model-file, host-rescaled via the
// Tinst micro-benchmark) and calibrating on a named built-in workload
// (-calibrate), so a new model flag lands in one place instead of four.
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
// command's flag set, parse, then Resolve/LoadRegistry.
type Flags struct {
	// ModelFile is -model-file: a JSON model registry, loaded at startup
	// and (for the daemon) rewritten on every model change. Missing files
	// are created on first save.
	ModelFile string
	// Calibrate is -calibrate: a named workload to fit a model on at
	// startup.
	Calibrate string

	// hostTinst caches the startup micro-benchmark so load and save use
	// the same measurement.
	hostTinst float64
}

// Register installs -model-file and -calibrate on fs. calibrateDefault
// seeds the -calibrate value (commands that always need a model pass their
// historical default, the daemon passes "").
func (f *Flags) Register(fs *flag.FlagSet, calibrateDefault string) {
	fs.StringVar(&f.ModelFile, "model-file", "",
		"JSON model-registry file: loaded at startup (predictions host-rescaled via a Tinst micro-benchmark) and persisted on model changes")
	fs.StringVar(&f.Calibrate, "calibrate", calibrateDefault,
		"calibrate the time model on this workload at startup ("+WorkloadNames+"; empty = don't)")
}

// HostTinst returns the host's measured Tinst, micro-benchmarking it on
// first use.
func (f *Flags) HostTinst() float64 {
	if f.hostTinst == 0 {
		f.hostTinst = calib.MeasureTinst()
	}
	return f.hostTinst
}

// LoadRegistry loads -model-file into a registry (an empty registry when
// the flag is unset or the file does not exist yet), rescaling persisted
// models to this host's speed.
func (f *Flags) LoadRegistry(retain int) (*calib.Registry, error) {
	if f.ModelFile == "" {
		return calib.NewRegistry(retain), nil
	}
	reg, err := calib.Load(f.ModelFile, retain, f.HostTinst())
	if err != nil {
		return nil, err
	}
	return reg, nil
}

// Save persists the registry back to -model-file; a no-op when the flag is
// unset.
func (f *Flags) Save(reg *calib.Registry) error {
	if f.ModelFile == "" {
		return nil
	}
	return reg.Save(f.ModelFile, f.HostTinst())
}

// Resolve yields the model a one-shot command should price with: the
// registry's current model when -model-file holds one, else a fresh fit on
// the -calibrate workload (installed into the returned registry), else no
// model at all. The registry is returned so the command can Save it.
func (f *Flags) Resolve(nodes int) (*core.TimeModel, *calib.Registry, error) {
	reg, err := f.LoadRegistry(0)
	if err != nil {
		return nil, nil, err
	}
	if m := reg.CurrentModel(); m != nil {
		return m, reg, nil
	}
	if f.Calibrate == "" {
		return nil, reg, nil
	}
	w, err := NamedWorkload(f.Calibrate, nodes)
	if err != nil {
		return nil, nil, err
	}
	m, points, err := TrainOn(w, nodes, opt.Optimize)
	if err != nil {
		return nil, nil, err
	}
	reg.Install(m, "calibrate", points, 0)
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
