#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/,
# the go command's own configuration and telemetry files included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
