#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given, from the repository root:
#
#   bash perfbench/run.sh --workload paper-run --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch stores and span files.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
