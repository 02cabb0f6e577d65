#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds coteload from source and runs it. Everything the Go toolchain
# writes (build cache, telemetry, temporary files) is kept inside the
# checkout, under .bench_build; the first call in a checkout compiles the
# standard library too, later calls find everything cached.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd bench && go build -o "$build/coteload" ./coteload)
exec "$build/coteload" "$@"
