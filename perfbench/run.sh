#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload dedup|finegrain|stream --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build artifact (the binary, the
# Go build cache, temporary files and span dumps) goes under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d swan || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, swan/ and perfbench/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
