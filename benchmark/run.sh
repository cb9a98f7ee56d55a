#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"), run from the root
# of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the harness and, through it, cmd/anonserver from the sources
# in the checkout, keeping every build artefact (binaries, the Go build
# and module caches, Go's temporary files) under .bench_build/ inside the
# checkout, then hands its arguments to the harness. In a directory that
# is not a checkout of the repository the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -build-dir "$build" "$@"
