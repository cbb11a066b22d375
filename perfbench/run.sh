#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload predict_fresh --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh steady --runs 10
#
# Run from the root of the repository. Every build product, the Go build
# cache, the trained-weight cache and span output stay under .bench_build/
# in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off GOENV=off
(cd perfbench && go build -o "$build/perfbench" .)
# Train the weight cache (first run in a checkout) or just load it, in a
# process of its own: the measured process never trains.
"$build/perfbench" prime >&2
exec "$build/perfbench" "$@"
