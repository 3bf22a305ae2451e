#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout; nothing is read or written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
# benchmark/ is a module of its own that replaces repro with the checkout
# around it: without that source tree this fails, as it should.
go build -C "$here" -o "$build/dnbench" .
cd "$root"
exec "$build/dnbench" "$@"
