#!/usr/bin/env bash
# scripts/loc.sh — the non-test Go line count ROADMAP tracks for the "one
# driver, one cache, one request pipeline" item: every *.go file that is not
# a test and not under bench/ (the benchmark is its own module), counted
# with wc -l, then the same per package directory, largest first. Output is
# a Markdown table so CI can append it to the job summary.
set -euo pipefail
cd "$(dirname "$0")/.."

files() {
	find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path './.git/*'
}

echo "Non-test Go lines outside bench/: $(files | xargs cat | wc -l)"
echo
echo "| package | lines |"
echo "|---|---:|"
files | while read -r f; do
	printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
done | awk '{n[$1] += $2} END {for (p in n) printf "%d %s\n", n[p], p}' | sort -rn |
	awk '{printf "| `%s` | %d |\n", $2, $1}'
