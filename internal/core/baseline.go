package core

import (
	"errors"
	"fmt"
	"time"

	"cote/internal/enum"
	"cote/internal/query"
	"cote/internal/stats"
)

// JoinCountEstimate is the baseline estimator of previous work (Ono &
// Lohman): compilation time proportional to the number of distinct binary
// joins, assuming uniform per-join cost. The paper shows it cannot
// distinguish queries with the same join graph but different interesting
// properties, producing errors "20 times larger" on the star batches.
type JoinCountEstimate struct {
	Pairs         int
	Elapsed       time.Duration
	PredictedTime time.Duration
}

// JoinCountModel is the baseline's one-constant time model: T = Tinst *
// (Cj*joins + C0).
type JoinCountModel struct {
	Tinst  float64
	Cj, C0 float64
}

// Predict converts a join count to a time prediction.
func (m *JoinCountModel) Predict(pairs int) time.Duration {
	return time.Duration(m.Tinst * (m.Cj*float64(pairs) + m.C0) * float64(time.Second))
}

// CalibrateJoinCount fits the baseline model by least squares, mirroring
// the best case the join-count approach could hope for ("no matter how we
// chose the time per join").
func CalibrateJoinCount(training []CompileObservation) (*JoinCountModel, error) {
	if len(training) < 2 {
		return nil, errors.New("core: need at least two training points")
	}
	const tinst = 1e-9
	x := make([][]float64, len(training))
	y := make([]float64, len(training))
	for i, tp := range training {
		x[i] = []float64{float64(tp.Pairs), 1}
		y[i] = tp.Actual.Seconds() / tinst
	}
	beta, err := stats.NonNegativeOLS(x, y)
	if err != nil {
		return nil, fmt.Errorf("core: join-count calibration failed: %w", err)
	}
	return &JoinCountModel{Tinst: tinst, Cj: beta[0], C0: beta[1]}, nil
}

// CountJoins counts the distinct binary joins of a query by running the
// enumerator with no hooks at all — the cheapest possible reuse of the
// enumeration machinery.
func CountJoins(blk *query.Block, opts Options) (*JoinCountEstimate, error) {
	start := time.Now()
	out := &JoinCountEstimate{}
	for _, b := range blk.Blocks() {
		if opts.Exec.Cancelled() {
			return nil, opts.Exec.Err()
		}
		ws := acquireWorkspace(b, opts)
		st, err := ws.enumerator(opts.level(), opts).Run(enum.Hooks{})
		ws.release()
		if err != nil {
			return nil, err
		}
		out.Pairs += st.Pairs
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// ClosedFormJoins returns the closed-form join counts known for special
// query shapes under full bushy enumeration without Cartesian products
// (Ono & Lohman; Ioannidis & Kang): (n^3-n)/6 for a linear query of n
// tables and (n-1)*2^(n-2) for a star. The general problem — counting joins
// of a cyclic query graph — is #P-complete, which is the paper's argument
// for reusing the enumerator instead.
func ClosedFormJoins(shape string, n int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("core: invalid table count %d", n)
	}
	switch shape {
	case "linear":
		return (n*n*n - n) / 6, nil
	case "star":
		if n < 2 {
			return 0, nil
		}
		return (n - 1) << (n - 2), nil
	default:
		return 0, fmt.Errorf("core: no closed form for shape %q (the general problem is #P-complete)", shape)
	}
}
