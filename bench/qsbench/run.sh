#!/usr/bin/env bash
# Builds qsbench from source and runs it with the given arguments, e.g.
#   bash bench/qsbench/run.sh --workload search-zoo --seed 1 --seconds 15 --trace 0
# Run it from the repository root. Everything the build writes (compiler
# cache, temporary files, the binary) stays under .bench_build/, and no
# toolchain or module is fetched over the network.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build/qsbench
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

(cd bench/qsbench && go build -o "$out/qsbench" .) >&2
exec "$out/qsbench" "$@"
