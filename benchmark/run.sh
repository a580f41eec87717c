#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root:
#   bash benchmark/run.sh --workload fuzz-hammer --seed 1 --seconds 40 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go -C "$root/benchmark" build -o "$out/bin/rhobench" .
exec "$out/bin/rhobench" -out "$out" "$@"
