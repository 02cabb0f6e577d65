package modelio

import (
	"math"
	"testing"
	"time"

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
