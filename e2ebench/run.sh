#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# module root. Build output and the Go build cache stay inside the
# checkout, under .bench_build/; the build uses only the local toolchain
# and the sources here, never the network.
#
#   bash e2ebench/run.sh --workload iter-bound --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
(cd e2ebench && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" "$@"
