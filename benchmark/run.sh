#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source into .bench_build/ of the checkout it is called from, then run
# it with the driver's arguments. Everything Go writes — build cache, module
# cache, temp files, the binary — stays under .bench_build/, so a run reads
# and writes only inside its checkout. Outside a checkout of the repository
# (no go.mod) the build fails and the script exits non-zero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
IDAAX_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export IDAAX_BENCH_COMMIT

go build -o "$out/idaax-benchmark" ./benchmark
exec "$out/idaax-benchmark" "$@"
