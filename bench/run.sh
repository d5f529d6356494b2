#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside the checkout)
# and runs it from there. All arguments go to the program; see README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
go build -C bench -o "$build/calloc-bench" .
exec "$build/calloc-bench" "$@"
