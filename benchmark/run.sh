#!/usr/bin/env bash
# The command BENCHMARK.json names. It runs the suite from the root of a
# checkout with everything the Go toolchain writes — build cache, link
# output, temporary files, its own counters — kept under .bench_build in
# that checkout, so a run touches nothing outside it. The first run
# compiles the standard library into that cache; later runs reuse it.
#
#   bash benchmark/run.sh --workload scan --seed 7 --seconds 15 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/spineserve ]; then
	echo "benchmark/run.sh: run from the repository root (go.mod and cmd/spineserve are needed to build)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"

exec go run ./benchmark "$@"
