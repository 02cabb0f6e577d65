#!/usr/bin/env bash
# bench/repeat.sh N [OUTFILE]
#
# Shows that the benchmark agrees with itself: runs two sets, A and B, of the
# same code, N runs per workload per set, alternating A and B so that slow
# drift of the host falls on both. Run i of either set uses seed i. The
# command, the window and the bounds come from BENCHMARK.json.
#
# First table: for every end-to-end metric of every workload both medians,
# by how much B's median is worse than A's, each set's quartile spread
# (Q3-Q1 over the median, quartiles as statistics.quantiles(n=4) gives them)
# and the bound. The script exits non-zero when B is worse than A by more
# than the bound, or when a spread other than that of setup_s exceeds it:
# the same two tests the driver applies before it accepts the benchmark.
#
# Second table: the same for the times as the clock gave them, before the
# host normalisation, so that what the normalisation buys can be read off.
#
# Third table: the host probe's kernel time per workload. The four workloads
# of one round run within two minutes of each other; if the kernel were
# coupled to the program under test, its level would differ by workload.
#
# Both output lines of every run go to OUTFILE (default
# bench/out/repeat.jsonl).
set -euo pipefail
cd "$(dirname "$0")/.."
n=${1:?usage: bench/repeat.sh N [OUTFILE]}
out=${2:-bench/out/repeat.jsonl}
mkdir -p "$(dirname "$out")"
: >"$out"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
mapfile -t command < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')

for i in $(seq 1 "$n"); do
	for set in A B; do
		for w in $workloads; do
			echo "run $i/$n set $set $w" >&2
			lines=$("${command[@]}" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 2)
			echo "{\"set\": \"$set\", \"round\": $i, \"workload\": \"$w\", \"report\": $(head -n 1 <<<"$lines" | python3 -c 'import json, sys; print(json.dumps(json.load(sys.stdin)["report"]))'), \"result\": $(tail -n 1 <<<"$lines")}" >>"$out"
		done
	done
done

python3 - "$out" <<'EOF'
import collections, json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
runs = collections.defaultdict(list)  # (workload, set, metric) -> values
raw = collections.defaultdict(list)
probe = collections.defaultdict(dict)  # (set, round) -> workload -> kernel time
for line in open(sys.argv[1]):
    r = json.loads(line)
    if not r["result"]["correct"]:
        sys.exit("incorrect run: " + line)
    for name, m in r["result"]["metrics"].items():
        runs[r["workload"], r["set"], name].append(m["value"])
    for name, m in r["report"]["raw"].items():
        raw[r["workload"], r["set"], name].append(m["value"])
    probe[r["set"], r["round"]][r["workload"]] = r["report"]["ref_alloc_us"]

def spread(v):
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

def table(values, metrics, gated):
    bad = 0
    print(f"{'workload':12} {'metric':19} {'median A':>10} {'median B':>10} {'B worse':>8} {'spread A':>9} {'spread B':>9}" + (f" {'bound':>6}" if gated else ""))
    for w in spec["workloads"]:
        for name, better, bound in metrics:
            a, b = values[w["name"], "A", name], values[w["name"], "B", name]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            sa, sb = (spread(a), spread(b)) if len(a) > 1 else (0.0, 0.0)
            row = f"{w['name']:12} {name:19} {ma:10.4g} {mb:10.4g} {worse:+8.1%} {sa:9.1%} {sb:9.1%}"
            if gated:
                row += f" {bound:6.0%}"
                if worse > bound or (name != "setup_s" and max(sa, sb) > bound):
                    row, bad = row + "  EXCEEDS", bad + 1
            print(row)
    return bad

bad = table(runs, [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]], True)
print("\nbefore normalisation:")
table(raw, [("latency_p50_us", "lower", 0), ("latency_p99_us", "lower", 0), ("throughput_rps", "higher", 0), ("cpu_us_per_req", "lower", 0), ("setup_s", "lower", 0)], False)

names = [w["name"] for w in spec["workloads"]]
print("\nhost probe, kernel time in us, relative to the mean of its round's four workloads:")
print(f"{'workload':12} {'median us':>10} {'median rel.':>12} {'min rel.':>9} {'max rel.':>9}")
rel = collections.defaultdict(list)
for by_workload in probe.values():
    if len(by_workload) == len(names):
        mean = statistics.mean(by_workload.values())
        for w, v in by_workload.items():
            rel[w].append(v / mean)
for w in names:
    level = statistics.median(v[w] for v in probe.values() if w in v)
    print(f"{w:12} {level:10.0f} {statistics.median(rel[w]):12.3f} {min(rel[w]):9.3f} {max(rel[w]):9.3f}")
sys.exit(1 if bad else 0)
EOF
