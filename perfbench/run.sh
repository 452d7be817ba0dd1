#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig3-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every build product (binary,
# Go build cache) and every file the benchmark writes stays under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
