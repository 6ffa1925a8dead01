#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash dedupbench/run.sh --workload online --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary, scratch WAL
# directories) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/dedupbench" && go build -o "$build/dedupbench" .) >&2
exec "$build/dedupbench" "$@"
