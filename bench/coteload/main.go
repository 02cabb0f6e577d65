// Command coteload is the repository's benchmark driver: one invocation
// runs one workload from one seed against an in-process coted server with
// one closed-loop client, checks every response against the answer key in
// package bench, and prints the metrics as JSON. bench/README.md describes
// the workloads, the metrics and how the two modes (-trace 0: end-to-end,
// -trace 1: per layer) relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"cote/bench"
)

// setUps is how many times a run sets up; setup_s is their median, because a
// single set-up of about a second is too short to repeat well on a shared
// host. The last set-up is the one measured on.
const setUps = 3

// report is the run's full record, printed before the result line.
type report struct {
	Workload       string    `json:"workload"`
	Host           hostInfo  `json:"host"`
	ResponseDigest string    `json:"response_digest"`
	Passes         int       `json:"passes"`
	SamplesPastP99 int       `json:"samples_past_p99"`
	WindowS        float64   `json:"window_s"`
	SetUpsS        []float64 `json:"set_ups_s"`
	// Raw are the end-to-end times as the clock gave them; WindowFactor and
	// SetupFactor are what the end-to-end metrics multiply them by, and
	// RefAllocUS is the host probe's kernel time behind WindowFactor.
	Raw          map[string]metric `json:"raw,omitempty"`
	WindowFactor float64           `json:"window_factor,omitempty"`
	SetupFactor  float64           `json:"setup_factor,omitempty"`
	RefAllocUS   float64           `json:"ref_alloc_us,omitempty"`
	ProbeRounds  int               `json:"probe_rounds,omitempty"`
	Error        string            `json:"error,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
}

// outcome is the last line of standard output: the driver's contract.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == probeArg {
		probeMain()
		return
	}
	name := flag.String("workload", "", "workload to run: warm_repeat, cold_sparse, cold_dense or compile")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "length the measured window is sized for")
	rates := flag.String("passes-per-minute", "", "workload=passes,...: the end-to-end window is this many passes per minute of -seconds, fixed in BENCHMARK.json so that every run of a workload sends the same requests")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	smoke := flag.Bool("smoke", false, "one set-up and one pass only: checks the harness and the answer key, not the speed")
	outDir := flag.String("out", "bench/out", "directory for the span file of a traced run")
	flag.Parse()

	passes := 1
	if !*smoke && *trace != 1 {
		var err error
		if passes, err = windowPasses(*rates, *name, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "coteload:", err)
			os.Exit(2)
		}
	}
	rep, out, err := run(*name, *seed, passes, *trace == 1, *smoke, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coteload:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(map[string]*report{"report": rep}) // a failed write to stdout has no better place to go
	_ = enc.Encode(out)
	if !out.Correct {
		fmt.Fprintln(os.Stderr, "coteload: incorrect:", rep.Error)
		os.Exit(1)
	}
}

// windowPasses sizes the window: the workload's passes per minute times the
// seconds asked for, at least one. A count, not a duration, so that the
// parent and the change of a comparison send the same requests and have the
// same number of samples behind every percentile.
func windowPasses(rates, workload string, seconds float64) (int, error) {
	for _, kv := range strings.Split(rates, ",") {
		k, v, _ := strings.Cut(kv, "=")
		if k != workload {
			continue
		}
		perMinute, err := strconv.ParseFloat(v, 64)
		if err != nil || perMinute <= 0 {
			return 0, fmt.Errorf("-passes-per-minute: bad rate %q for %s", v, workload)
		}
		return max(1, int(math.Round(perMinute*seconds/60))), nil
	}
	return 0, fmt.Errorf("-passes-per-minute has no rate for workload %q (BENCHMARK.json's command carries the rates)", workload)
}

// run sets up, measures passes whole passes (or runs the traced rounds) and
// builds the report and the result line.
func run(name string, seed int64, passes int, traced, smoke bool, outDir string) (rep *report, out *outcome, err error) {
	w, ok := bench.WorkloadByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	n := setUps
	if traced || smoke {
		n = 1
	}
	probe, err := startProbe()
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if stopErr := probe.stop(); err == nil {
			err = stopErr
		}
	}()

	var e *env
	var took []float64
	digests := map[string]bool{}
	var setupAllocUS []float64
	for i := 0; i < n; i++ {
		if e, err = setUp(w, seed); err != nil {
			return nil, nil, err
		}
		took = append(took, e.took.Seconds())
		digests[e.digest] = true
		if setupAllocUS, err = probe.sample(setupAllocUS, e.took); err != nil {
			return nil, nil, err
		}
	}

	rep = &report{Workload: w.Name, ResponseDigest: e.digest, SetUpsS: took}
	var res *result
	if traced {
		if rep.Metrics, res, err = traceRun(e, smoke, outDir, probe); err != nil {
			return nil, nil, err
		}
	} else {
		var allocUS []float64
		if res, allocUS, err = e.measure(passes, probe); err != nil {
			return nil, nil, err
		}
		rep.Raw = rawTimes(e, res, median(took))
		rep.WindowFactor, rep.SetupFactor = speedFactor(allocUS), speedFactor(setupAllocUS)
		rep.RefAllocUS, rep.ProbeRounds = trimmedMean(allocUS), len(allocUS)
		rep.Metrics = endToEnd(e, res, rep.Raw, rep.WindowFactor, rep.SetupFactor)
	}
	rep.Host = hostBlock(seed, res.attempted)
	rep.Passes = len(res.passes)
	rep.SamplesPastP99 = len(res.latencies) / 100
	for _, p := range res.passes {
		rep.WindowS += p.wall.Seconds()
	}
	switch {
	case res.firstErr != nil:
		rep.Error = fmt.Sprintf("%d of %d responses wrong, the first: %v", res.failed, res.attempted, res.firstErr)
	case len(digests) > 1:
		rep.Error = "the same requests to fresh servers gave different response digests"
	}
	return rep, &outcome{Correct: rep.Error == "", Attempted: res.attempted, Failed: res.failed, Metrics: rep.Metrics}, nil
}
