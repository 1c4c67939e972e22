#!/usr/bin/env bash
# Builds the benchmark and runs it from bench/, keeping every file the build
# and the run write inside the checkout: compiler caches and the binary under
# .bench_build/, results and scratch under bench/out/.
#
#   bash bench/run.sh --workload deep_single --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps its telemetry counters under the user's config dir.
export XDG_CONFIG_HOME="$build/config"
go build -o "$build/trajbench" .
exec "$build/trajbench" "$@"
