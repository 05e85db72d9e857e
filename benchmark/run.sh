#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout this
# script lives in, then runs it. Everything the build and the run write —
# Go's build cache, its temp files and telemetry counters, the durable
# workload's database — stays under .bench_build/, so a run touches nothing
# outside the checkout. The build uses the local toolchain and no network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work"
env GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	go build -C "$root/benchmark" -o "$out/gombenchmark" .
exec "$out/gombenchmark" -work "$out/work" "$@"
