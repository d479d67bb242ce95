#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds vxmark from source into .bench_build/ (the first call compiles
# the repository; later calls find everything cached) and runs it. The Go
# build cache, the go command's own configuration and telemetry counters
# (XDG_CONFIG_HOME), temp files and every file the benchmark writes stay
# inside the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/vxmark" .)
exec "$build/vxmark" "$@"
