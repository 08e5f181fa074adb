#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload call-mix --seed 1 --seconds 20 --trace 0
#
# Every build artefact, the Go build cache included, stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build) of the
# checkout, so the run touches nothing outside it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
