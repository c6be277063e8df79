#!/bin/bash
# Builds the benchmark from source into the checkout's build directory and
# runs it with the arguments given. Everything Go writes (build cache,
# module cache, binary) stays inside the checkout. The build fails, and
# this script exits non-zero without printing a result, anywhere the
# repository's own go.mod is missing.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
# No toolchain download, and the go command's own counters stay in here too.
export GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/rasc-bench-suite" .
cd "$root"
exec "$build/rasc-bench-suite" "$@"
