#!/usr/bin/env bash
# Builds knwd and the benchmark program from the checkout it is run in,
# then runs one workload (or --workload all for the three in turn):
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every build product, Go cache and
# result file lands in .bench_build/ under that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/knwd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/knwd and perfbench/ are required)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/results"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOWORK=off GOFLAGS=

go build -o "$build/knwd" ./cmd/knwd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -knwd "$build/knwd" -out "$build/results" "$@"
