#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write (Go build cache, binary,
# generated graphs, traces) goes under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C benchmark -o "$build/aapbench" .
exec "$build/aapbench" "$@"
