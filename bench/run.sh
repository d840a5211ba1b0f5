#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fig8 --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build/ in the repository root, and the
# toolchain never downloads anything.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"

(cd "$root/bench" && go build -o "$build/smodperf" .)
exec "$build/smodperf" "$@"
