#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload bunge-gmg --seed 0 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
