#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload web --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain and the benchmark write stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
