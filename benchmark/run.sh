#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout's root; all arguments go to the benchmark.
# Build cache and outputs stay under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/benchmark" build -o "$out/hydee-benchmark" .
cd "$root"
exec "$out/hydee-benchmark" "$@"
