#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload collect-syn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# run's scratch files all stay under .bench_build in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
