#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload fat-solve --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and every file the run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
