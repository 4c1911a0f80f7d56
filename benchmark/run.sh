#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments; BENCHMARK.json names this script as its command.
# Everything the build writes stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" exec "$build/benchmark" "$@"
