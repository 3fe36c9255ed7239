#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash flexbench/run.sh --workload paper_ws80 --seed 1 --seconds 15 --trace 0
# Run from the repository root. Every file the build and the run write
# (Go build cache, binary, farm lakes, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
go build -C flexbench -o "$out/flexbench-bin" .
exec "$out/flexbench-bin" -data flexbench/data -work "$out/flexbench" "$@"
