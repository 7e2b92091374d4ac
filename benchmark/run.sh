#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash benchmark/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build, relative to the repository
# root): the Go build cache, temporary files, scratch stores and trace
# output. The binary runs with the repository root as its working
# directory, because the paper-suite check reads results_all.txt there.
set -euo pipefail

cd "$(dirname "$0")/.."
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off

go build -C benchmark -o "$build/wecbench" .
exec "$build/wecbench" -workdir "$build" "$@"
