#!/bin/bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build and the run write stays under .bench_build/ and
# bench/out/ in this checkout: the Go build cache too, so the first
# build in a fresh checkout compiles the standard library as well.
set -eu
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C bench -o "$root/.bench_build/ecobench" .
exec "$root/.bench_build/ecobench" "$@"
