package modelio

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"cote/internal/calib"
	"cote/internal/core"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/query"
	"cote/internal/workload"
)

// TrainOn compiles every training point twice, once untimed and once timed.
// The recording compile stamps each result so the fitted model shows which
// compile each half of an observation came from: an untimed compile's wall
// time is its plans priced by truth, a timed one's is an hour and its
// generation time is its plans priced at 5:2:4 ns per plan. The fit then has
// the 5:2:4 proportions (GenSeconds from the timed compile) and truth's
// predictions (Actual from the untimed one).
func TestTrainOnCompilesEachPointUntimedAndTimed(t *testing.T) {
	var share [props.NumJoinMethods]time.Duration
	share[props.MGJN], share[props.NLJN], share[props.HSJN] = 5, 2, 4
	truth := &core.TimeModel{Tinst: 1e-9, C0: 30_000}
	for m := range truth.C {
		truth.C[m] = 3 * float64(share[m])
	}

	type point struct {
		blk   *query.Block
		level opt.Level
	}
	calls := map[point][2]int{} // untimed, timed
	compile := func(blk *query.Block, o opt.Options) (*opt.Result, error) {
		res, err := opt.Optimize(blk, o)
		if err != nil {
			return nil, err
		}
		n := calls[point{blk, o.Level}]
		if o.Timed {
			n[1]++
			res.Elapsed = time.Hour
			for _, b := range res.Blocks {
				b.Counters.SaveTime = 0
				for m := range b.Counters.GenTime {
					b.Counters.GenTime[m] = time.Duration(b.Counters.Generated[m]) * share[m]
				}
			}
		} else {
			n[0]++
			res.Elapsed = truth.Predict(core.CountsFrom(res.TotalCounters()))
		}
		calls[point{blk, o.Level}] = n
		return res, nil
	}

	w := workload.Real1(1)
	m, points, err := TrainOn(w, 1, compile)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(w.Queries); points != want || len(calls) != want {
		t.Fatalf("%d observations from %d points, want %d", points, len(calls), want)
	}
	for p, n := range calls {
		if n != [2]int{1, 1} {
			t.Errorf("%s at %v: %d untimed and %d timed compiles, want one each", p.blk.Name, p.level, n[0], n[1])
		}
	}
	if got, want := m.Ratio(), [props.NumJoinMethods]float64{props.MGJN: 2.5, props.NLJN: 1, props.HSJN: 2}; !near(got[:], want[:], 1e-9) {
		t.Errorf("ratio %v, want the timed compiles' %v", got, want)
	}
	var c core.PlanCounts
	c.ByMethod[props.MGJN], c.ByMethod[props.NLJN], c.ByMethod[props.HSJN] = 400, 900, 300
	if got, want := m.Predict(c).Seconds(), truth.Predict(c).Seconds(); math.Abs(got-want) > 1e-3*want {
		t.Errorf("model %v predicts %v, the untimed compiles' truth %v", m, got, want)
	}
}

func near(a, b []float64, rel float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > rel*math.Abs(b[i]) {
			return false
		}
	}
	return true
}

// Resolve takes the model from -model-file over a -calibrate fit, and a fit
// over the release model for -nodes, rescaling file and release models by
// the host's Tinst.
func TestResolveOrder(t *testing.T) {
	const host = 2e-9
	resolve := func(f Flags, nodes int) (*core.TimeModel, string) {
		t.Helper()
		f.hostTinst = host
		m, reg, err := f.Resolve(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if reg.CurrentModel() != m {
			t.Fatalf("resolved %v, registry holds %v", m, reg.CurrentModel())
		}
		return m, reg.Current().Source
	}

	path := filepath.Join(t.TempDir(), "model.json")
	saved := &core.TimeModel{Tinst: 1e-9, C0: 100}
	saved.C[props.MGJN], saved.C[props.NLJN], saved.C[props.HSJN] = 5, 2, 4
	file := calib.NewRegistry(0)
	file.Install(saved, "api", 0, 0)
	if err := file.Save(path, host/4); err != nil {
		t.Fatal(err)
	}
	if m, src := resolve(Flags{ModelFile: path, Calibrate: "no-such-workload"}, 1); src != "api" || m.Tinst != 4*saved.Tinst || m.C != saved.C {
		t.Errorf("with a model file: %v from %q, want the file's %v at 4x Tinst", m, src, saved)
	}
	if _, src := resolve(Flags{ModelFile: filepath.Join(t.TempDir(), "new.json"), Calibrate: "linear"}, 1); src != "calibrate" {
		t.Errorf("-calibrate without a model in the file: source %q", src)
	}

	var release []core.TimeModel
	for _, nodes := range []int{1, 4} {
		m, src := resolve(Flags{}, nodes)
		release = append(release, *m)
		rel, err := calib.Release(nodes, host)
		if err != nil {
			t.Fatal(err)
		}
		if src != "release" || *m != *rel.CurrentModel() {
			t.Errorf("nodes=%d: %v from %q, want the release's %v", nodes, m, src, rel.CurrentModel())
		}
		f := Flags{hostTinst: 2 * host}
		twice, _, err := f.Resolve(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if twice.Tinst != 2*m.Tinst || twice.C != m.C {
			t.Errorf("nodes=%d: a host twice as slow resolves %v, want %v at 2x Tinst", nodes, twice, m)
		}
	}
	if release[0] == release[1] {
		t.Errorf("-nodes 4 resolved the serial release model %v", release[0])
	}
}
