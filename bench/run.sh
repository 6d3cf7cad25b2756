#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given, from the root
# of a checkout. The binary, Go's build cache and the CDN nodes' segments
# all live under .bench_build, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" -tmp "$build/tmp" "$@"
