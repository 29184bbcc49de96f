#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes stays inside the checkout: the binary and the Go
# build cache go to .bench_build/, the traced run's files to
# benchmark/out/. Run it from the repository root:
#
#   bash benchmark/run.sh --workload lmsg-np8 --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# Build under a private name and rename, so a concurrent run never execs
# a half-written binary.
go build -C benchmark -o "$build/benchmark.$$" .
mv -f "$build/benchmark.$$" "$build/benchmark"
BENCH_GIT_COMMIT=$(git rev-parse HEAD 2>/dev/null || true)
export BENCH_GIT_COMMIT
exec "$build/benchmark" "$@"
