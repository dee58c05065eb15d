#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and
# runs it there.  Everything the build and the run write (Go build cache,
# binary, data files, results) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/svrbenchmark" .
exec "$build/svrbenchmark" "$@"
