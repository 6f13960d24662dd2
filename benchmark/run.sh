#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout
# (the Go build cache and temporary files go there too, so nothing is
# read or written outside the checkout) and runs it with the given
# arguments. BENCHMARK.json's command is `bash benchmark/run.sh`; by
# hand, `go run ./benchmark` does the same with the user's own cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -o "$build/tskd-benchmark" ./benchmark
exec "$build/tskd-benchmark" "$@"
