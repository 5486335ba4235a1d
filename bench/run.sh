#!/bin/sh
# Builds the benchmark harness from the sources in this checkout and runs
# it from the repository root, passing every argument through. All build
# output, the Go build cache and temporary files stay under .bench_build/.
#
#   sh bench/run.sh --workload lsb-dense32 --seed 1 --seconds 10 --trace 0
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
GOCACHE="$out/gocache"
GOTMPDIR="$out/gotmp"
GOPATH="$out/gopath"
GOTOOLCHAIN=local
GOPROXY=off
GOWORK=off
GOFLAGS=
export GOCACHE GOTMPDIR GOPATH GOTOOLCHAIN GOPROXY GOWORK GOFLAGS
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
