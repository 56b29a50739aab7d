#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash bench/run.sh [flags]
#
# Everything the build writes (the Go build cache, temporary files, the
# toolchain's local state and the binary) stays under .bench_build/ in
# the checkout. The first run compiles the standard library into that
# cache; later runs reuse it.
set -euo pipefail

if [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C bench build -o "$build/demeter-bench" .
exec "$build/demeter-bench" "$@"
