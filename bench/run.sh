#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: bash bench/run.sh --workload wide_ring --seed 1 --seconds 20 --trace 0
#
# Everything the toolchain and the benchmark write stays under
# .bench_build/ in the checkout: build cache, temp files, Go's own
# config directory, the binary, journals and trace output.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/bench" -o "$build/hc3ibenchmark" .
exec "$build/hc3ibenchmark" "$@"
