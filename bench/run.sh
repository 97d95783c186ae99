#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (binary, Go build cache, temporary files, the
# toolchain's own counters) stays under .bench_build/ in the checkout; the
# program writes only under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
