#!/usr/bin/env bash
# Builds dssperf from the checkout it is run in and runs it; every argument is
# passed through. Run it from the repository root:
#
#   bash bench/run.sh --workload fig5-exact --seed 7 --seconds 15 --trace 0
#
# The Go build cache, temporary files, the binary, trace files and default reports
# stay under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME holds the go command's own configuration and telemetry.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
# The benchmark needs nothing outside the repository: never fetch a
# toolchain or a module.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$bench" && go build -o "$build/dssperf" ./dssperf) >&2
exec "$build/dssperf" "$@"
