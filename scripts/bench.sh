#!/usr/bin/env bash
# bench.sh — run the repo benchmarks and gate them against the committed
# baseline (BENCH_cote.json) via cmd/benchjson.
#
#   scripts/bench.sh                 run full suite, compare vs baseline
#   scripts/bench.sh -update         run full suite, rewrite BENCH_cote.json
#   scripts/bench.sh -smoke          one fast iteration per benchmark and a
#                                    structural compare only (what CI runs:
#                                    every baselined benchmark must still
#                                    exist and parse, wall-clock not judged)
#
# Custom b.ReportMetric units (e.g. the headline estimate's deterministic
# "peak-bytes" resource metric) land in each benchmark's "extra" map in
# BENCH_cote.json; `benchjson -delta` reports them alongside ns/op and
# allocs/op, and the compare gates those whose unit ends in "-exact" (the
# parse, canonical-rebuild and bench-shaped estimate allocation counts) on
# equality.
#
# Environment overrides:
#   COUNT      runs per benchmark, median kept   (default 5; smoke: 1)
#   BENCH      -bench regex                      (default .)
#   TOLERANCE  allowed fractional regression     (default 0.25)
#   BENCH_OUT  also write the parsed benchjson output to this file
#              (smoke/compare modes; CI uploads it as an artifact)
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
BENCH="${BENCH:-.}"
TOLERANCE="${TOLERANCE:-0.25}"
BASELINE=BENCH_cote.json

mode=compare
for arg in "$@"; do
  case "$arg" in
    -update) mode=update ;;
    -smoke)  mode=smoke ;;
    *) echo "usage: $0 [-update|-smoke]" >&2; exit 2 ;;
  esac
done

extra=()
if [ "$mode" = smoke ]; then
  COUNT=1
  extra=(-benchtime 1x)
fi

if [ "$mode" != update ] && [ ! -f "$BASELINE" ]; then
  echo "bench.sh: baseline $BASELINE not found — run 'scripts/bench.sh -update' once to record it" >&2
  exit 1
fi

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

# The root package holds the paper's figures and the headline paths; core
# holds the estimates of benchmark-shaped blocks, and the two
# front-of-pipeline packages the parse and fingerprint benchmarks; the
# baseline gates the allocation counts of all three exactly.
PKGS=(. ./internal/core ./internal/sqlparser ./internal/fingerprint)

echo "== go test -run NONE -bench $BENCH -benchmem -count $COUNT ${extra[*]:-} ${PKGS[*]}" >&2
go test -run NONE -bench "$BENCH" -benchmem -count "$COUNT" "${extra[@]}" "${PKGS[@]}" | tee "$out" >&2

emit() {
  # Keep a machine-readable copy of this run next to the pass/fail gate so
  # CI can archive it (and a human can diff two runs) without re-running.
  if [ -n "${BENCH_OUT:-}" ]; then
    go run ./cmd/benchjson < "$out" > "$BENCH_OUT"
    echo "wrote $BENCH_OUT" >&2
  fi
}

case "$mode" in
  update)
    go run ./cmd/benchjson < "$out" > "$BASELINE"
    echo "wrote $BASELINE"
    ;;
  compare)
    emit
    go run ./cmd/benchjson -compare "$BASELINE" -tolerance "$TOLERANCE" < "$out"
    ;;
  smoke)
    emit
    go run ./cmd/benchjson -compare "$BASELINE" -structural < "$out"
    ;;
esac
