// Command benchjson converts `go test -bench` output into a stable JSON
// document and compares such documents against a committed baseline — the
// repo's benchmark-regression harness (driven by scripts/bench.sh).
//
// Emit mode (default) reads benchmark output on stdin and writes JSON:
//
//	go test -run NONE -bench . -benchmem -count 5 . | benchjson > BENCH_cote.json
//
// With -count > 1 the per-benchmark median of each metric is kept, which is
// what makes the numbers comparable run-to-run. The document carries no
// timestamps or host identifiers, so regenerating it on an unchanged tree
// produces a minimal diff.
//
// Compare mode checks a new run (stdin, bench output or JSON) against a
// baseline JSON file:
//
//	go test -run NONE -bench . -benchmem -count 5 . | benchjson -compare BENCH_cote.json -tolerance 0.25
//
// It fails (exit 1) when ns/op or allocs/op of any shared benchmark
// regressed by more than the tolerance or a custom metric whose unit ends in
// "-exact" differs at all, and reports benchmarks that disappeared.
// -structural skips the numeric check — benchmarks must merely all still
// exist and produce parseable output, the cheap smoke mode CI runs on every
// push (CI machines are too noisy for wall-clock gates).
//
// Delta mode renders a benchstat-style per-benchmark change table against a
// baseline, purely informational (always exit 0 on valid input):
//
//	go test -run NONE -bench . -benchmem . | benchjson -delta BENCH_cote.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's median measurements. NsPerOp and AllocsPerOp
// get dedicated fields (they are what the harness gates on); every custom
// b.ReportMetric unit lands in Extra.
type Metrics struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Doc is the persisted benchmark document.
type Doc struct {
	// Note reminds readers how to regenerate the file.
	Note       string             `json:"note"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

func main() {
	compare := flag.String("compare", "", "baseline JSON to compare stdin against (default: emit JSON)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional regression of ns/op and allocs/op")
	structural := flag.Bool("structural", false, "compare mode: only require every baseline benchmark to still exist")
	delta := flag.String("delta", "", "baseline JSON to print an informational change table against (never fails)")
	flag.Parse()

	doc, err := parseInput(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	if *delta != "" {
		base, err := readDoc(*delta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
			os.Exit(2)
		}
		printDelta(os.Stdout, base, doc, *delta)
		return
	}
	if *compare == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		return
	}

	base, err := readDoc(*compare)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
		os.Exit(2)
	}
	failures := compareDocs(base, doc, *tolerance, *structural)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	mode := "tolerance"
	if *structural {
		mode = "structural"
	}
	fmt.Printf("benchjson: %d benchmarks OK against %s (%s mode)\n", len(base.Benchmarks), *compare, mode)
}

// parseInput accepts either raw `go test -bench` output or an already
// emitted JSON document (so compare mode works on committed files too).
func parseInput(r io.Reader) (*Doc, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		var doc Doc
		if err := json.Unmarshal([]byte(trimmed), &doc); err != nil {
			return nil, fmt.Errorf("JSON input: %w", err)
		}
		return &doc, nil
	}
	return parseBenchOutput(strings.NewReader(trimmed))
}

// parseBenchOutput collects every Benchmark line; repeated names (from
// -count) are reduced to their per-metric median.
func parseBenchOutput(r io.Reader) (*Doc, error) {
	samples := map[string]map[string][]float64{} // name -> unit -> values
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, units, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		m := samples[name]
		if m == nil {
			m = map[string][]float64{}
			samples[name] = m
		}
		for unit, v := range units {
			m[unit] = append(m[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	doc := &Doc{
		Note:       "benchmark baseline; regenerate with scripts/bench.sh -update",
		Benchmarks: map[string]Metrics{},
	}
	for name, units := range samples {
		var met Metrics
		for unit, vals := range units {
			v := median(vals)
			switch unit {
			case "ns/op":
				met.NsPerOp = v
			case "B/op":
				met.BytesPerOp = v
			case "allocs/op":
				met.AllocsPerOp = v
			default:
				if met.Extra == nil {
					met.Extra = map[string]float64{}
				}
				met.Extra[unit] = v
			}
		}
		doc.Benchmarks[name] = met
	}
	return doc, nil
}

// parseBenchLine splits "BenchmarkX-8  84  15513280 ns/op  444897 B/op ..."
// into the trimmed name and its unit->value pairs.
func parseBenchLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so documents from different machines use
	// the same keys.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false // not an iteration count: some other line
	}
	units := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		units[fields[i+1]] = v
	}
	if len(units) == 0 {
		return "", nil, false
	}
	return name, units, true
}

func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func readDoc(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var doc Doc
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// compareDocs returns one message per violated constraint.
func compareDocs(base, cur *Doc, tolerance float64, structural bool) []string {
	var failures []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline, missing from this run", name))
			continue
		}
		if structural {
			continue
		}
		if worse(b.NsPerOp, c.NsPerOp, tolerance) {
			failures = append(failures, fmt.Sprintf("%s: ns/op %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
				name, b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), tolerance*100))
		}
		if worse(b.AllocsPerOp, c.AllocsPerOp, tolerance) {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
				name, b.AllocsPerOp, c.AllocsPerOp, 100*(c.AllocsPerOp/b.AllocsPerOp-1), tolerance*100))
		}
		// A custom metric whose unit ends in "-exact" is a deterministic
		// count: any difference from the baseline, either way, fails.
		for unit, want := range b.Extra {
			if got := c.Extra[unit]; strings.HasSuffix(unit, "-exact") && got != want {
				failures = append(failures, fmt.Sprintf("%s: %s %v -> %v (gated exactly)", name, unit, want, got))
			}
		}
	}
	return failures
}

// printDelta renders the benchstat-style informational table: one row per
// benchmark present in either document, with the ns/op and allocs/op change
// as signed percentages. New and vanished benchmarks are called out instead
// of silently dropped. Single-shot CI runs are noisy, so the table is for
// eyeballs and artifact diffs, never a gate.
func printDelta(w io.Writer, base, cur *Doc, basePath string) {
	names := map[string]bool{}
	for name := range base.Benchmarks {
		names[name] = true
	}
	for name := range cur.Benchmarks {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	fmt.Fprintf(w, "benchmark deltas vs %s (informational; single-run medians, expect noise)\n", basePath)
	fmt.Fprintf(w, "%-44s %14s %14s %9s %11s %11s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs", "peak-bytes")
	for _, name := range sorted {
		b, inBase := base.Benchmarks[name]
		c, inCur := cur.Benchmarks[name]
		switch {
		case !inCur:
			fmt.Fprintf(w, "%-44s %14.0f %14s %9s %11s %11s\n", name, b.NsPerOp, "-", "gone", "", "")
		case !inBase:
			fmt.Fprintf(w, "%-44s %14s %14.0f %9s %11s %11s\n", name, "-", c.NsPerOp, "new", "", "")
		default:
			fmt.Fprintf(w, "%-44s %14.0f %14.0f %s %11s %11s\n",
				name, b.NsPerOp, c.NsPerOp, deltaPct(b.NsPerOp, c.NsPerOp), deltaPct(b.AllocsPerOp, c.AllocsPerOp),
				deltaPct(b.Extra["peak-bytes"], c.Extra["peak-bytes"]))
		}
	}
}

// deltaPct formats a signed relative change, or "~" when either side is
// unmeasured.
func deltaPct(base, cur float64) string {
	if base <= 0 || cur <= 0 {
		return fmt.Sprintf("%9s", "~")
	}
	return fmt.Sprintf("%+8.1f%%", 100*(cur/base-1))
}

// worse reports whether cur regressed past the tolerance relative to base.
// Unmeasured metrics (zero in either document) never fail.
func worse(base, cur, tolerance float64) bool {
	if base <= 0 || cur <= 0 {
		return false
	}
	return cur > base*(1+tolerance)
}
