#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload dense-scalar --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# the go command's own config and telemetry files, span files and CPU
# profiles all stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
