#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash benchmark/run.sh --workload par-lean --seed 1 --seconds 25 --trace 0
#
# The binary and every Go cache live in the build directory inside the
# checkout ($CARGO_TARGET_DIR when set, else .bench_build), so a run reads and
# writes nothing outside it and never touches the network.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/msspbenchmark" .)
exec "$out/msspbenchmark" "$@"
