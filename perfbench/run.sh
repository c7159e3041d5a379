#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.:
#   bash perfbench/run.sh --workload paper-reclaim --seed 1 --seconds 30 --trace 0
# Build outputs and the Go build cache stay under .bench_build in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
