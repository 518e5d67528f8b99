#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash benchmark/run.sh --workload cnn-sync --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh --all --seed 1
#
# Everything the build writes, Go's caches and settings included, stays
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off
(cd "$root/benchmark" && go build -buildvcs=false -o "$out/nebula-e2e" .)
exec "$out/nebula-e2e" "$@"
