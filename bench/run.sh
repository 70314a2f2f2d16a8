#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash bench/run.sh --workload fig2 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, Go's own config and telemetry, the binary,
# journals, trace files) goes under .bench_build/ in the current
# directory. It fails without printing a result when the repository
# sources are missing.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, internal/ and bench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C "$root/bench" build -o "$build/hcperf" ./hcperf
exec "$build/hcperf" "$@"
