#!/usr/bin/env bash
# Builds the benchmark and the promserve binary it drives from the tree in
# the current directory, then runs the benchmark. Every build product and
# the go caches stay under .bench_build/ in that directory.
#
#   bash bench/run.sh --workload spheres_linear --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh all --seed 1 --runs 10      # a whole run set
#   bash bench/run.sh compare A.json B.json
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go build -C "$root/bench" -o "$build/bench" . >&2
go build -C "$root" -o "$build/promserve" ./cmd/promserve >&2

exec "$build/bench" "$@"
