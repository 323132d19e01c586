#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build at the checkout root; the benchmark's own scratch stores
# live there too. Arguments pass through to the benchmark binary:
#   bash perfbench/run.sh --workload study-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
