#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash malschedbench/run.sh --workload serve_fresh --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, traces) goes under .bench_build/ there.
set -euo pipefail
out="$(pwd)/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/malschedbench" .)
exec "$out/malschedbench" "$@"
