#!/usr/bin/env bash
# Builds the data-plane benchmark from the sources in this checkout and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload static-browse --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build leaves behind
# (Go build cache, binary, trace files) stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
