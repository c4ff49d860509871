#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with
# the arguments given, e.g.
#
#   bash htbench/run.sh --workload submit-zipf --seed 1 --seconds 32 --trace 0
#
# Everything the build and the run write goes under the build directory:
# $CARGO_TARGET_DIR when set, else .bench_build, relative to the
# repository root. See htbench/README.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTELEMETRY=off

(cd "$root/htbench" && go build -o "$out/htbench" .) >&2
cd "$root"
exec "$out/htbench" --out "$out" "$@"
