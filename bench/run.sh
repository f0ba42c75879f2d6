#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given flags,
# from the root of a checkout:
#
#   bash bench/run.sh --workload hot-replay --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and, through the benchmark's default -workdir,
# the run's stores and spans files all stay under .bench_build/ in the
# checkout. Outside a full checkout (no go.mod one directory up from bench/)
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/osnbench" .)
exec "$build/osnbench" "$@"
