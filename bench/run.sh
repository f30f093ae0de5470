#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from this
# directory's own module and runs it from the root of the checkout.
# Everything the Go toolchain writes (build cache, temp dirs, telemetry
# counters) is redirected under .bench_build/ so a run touches nothing
# outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
cd "$root"
go build -C "$here" -o "$build/streambench" .
exec "$build/streambench" "$@"
