#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload walk --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, the Go command's
# configuration and telemetry files) goes under .bench_build/ in the current
# directory, or under $CARGO_TARGET_DIR when set.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
