package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"cote/bench"
)

// The host probe starts this binary again as its child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == probeArg {
		probeMain()
		return
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name, Unit, Better string
	Bound              float64
}

type benchSpec struct {
	Command    []string
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// units maps the metrics BENCHMARK.json lists to their units.
func units(ms []specMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// The smoke run of every workload keeps the harness building, the answer
// key green and BENCHMARK.json in step with what the driver prints.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 4", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.Name == "cold_dense" && testing.Short() {
				continue // the slowest traced smoke; cold_sparse takes the same path
			}
			rep, out, err := run(w.Name, 1, 1, traced, true, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", w.Name, traced, out.Correct, out.Attempted, out.Failed, rep.Error)
			}
			want := units(spec.EndToEnd)
			if traced {
				want = units(spec.PerLayer)
			}
			got := map[string]string{}
			for name, m := range out.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics printed: %v\nBENCHMARK.json lists: %v", w.Name, traced, got, want)
			}
			if rep.Host.Seed != 1 || rep.Host.Requests != out.Attempted || rep.Host.GoVersion == "" || len(rep.ResponseDigest) != 64 {
				t.Errorf("%s traced=%v: host block or digest incomplete: %+v %q", w.Name, traced, rep.Host, rep.ResponseDigest)
			}
		}
	}
}

// The rates in BENCHMARK.json's command give every workload a window with
// at least 60 samples beyond the 99th percentile.
func TestBenchmarkJSONFixesTheWindow(t *testing.T) {
	spec := loadSpec(t)
	rates := ""
	for i, arg := range spec.Command {
		if arg == "--passes-per-minute" && i+1 < len(spec.Command) {
			rates = spec.Command[i+1]
		}
	}
	for _, w := range bench.Workloads {
		passes, err := windowPasses(rates, w.Name, spec.RunSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if past := passes * w.PassLen / 100; past < 60 {
			t.Errorf("%s: %d passes leave %d samples past the 99th percentile, want 60", w.Name, passes, past)
		}
	}
}

// exact reports whether a per-layer metric is a count made by the program:
// those must repeat exactly for one seed.
func exact(name string) bool {
	return strings.HasSuffix(name, "_per_req") && !strings.Contains(name, "_us_") && name != "harness.allocs_per_req" ||
		strings.HasSuffix(name, "_ratio") || name == "core.plancount_err_pct"
}

func TestExactCountersRepeat(t *testing.T) {
	for _, name := range []string{"cold_sparse", "compile"} {
		repA, a, err := run(name, 3, 1, true, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		repB, b, err := run(name, 3, 1, true, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if repA.ResponseDigest != repB.ResponseDigest {
			t.Errorf("%s: response digest differs between two runs of one seed", name)
		}
		checked := 0
		for m, va := range a.Metrics {
			if exact(m) {
				checked++
				if vb := b.Metrics[m]; va != vb {
					t.Errorf("%s: %s = %v, then %v", name, m, va.Value, vb.Value)
				}
			}
		}
		if checked < 15 {
			t.Errorf("%s: only %d exact counters compared", name, checked)
		}
		_, other, err := run(name, 4, 1, true, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if other.Metrics["sqlparser.sql_bytes_per_req"] == a.Metrics["sqlparser.sql_bytes_per_req"] {
			t.Errorf("%s: seeds 3 and 4 sent the same number of SQL bytes", name)
		}
	}
}
