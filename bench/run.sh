#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of the checkout: bash bench/run.sh [flags]. Everything the
# build leaves behind (Go build cache, temp files, the binary, result
# files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go build -C "$root/bench" -o "$build/cobench-e2e" .
exec "$build/cobench-e2e" "$@"
