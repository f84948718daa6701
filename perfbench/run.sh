#!/usr/bin/env bash
# Builds impserve and the benchmark from this checkout into .bench_build,
# then runs one benchmark measurement. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-batch-1shard --seed 1 --seconds 30 --trace 0
#
# Every build and scratch file stays under .bench_build (the Go build
# cache included), so the run reads and writes only inside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
export GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
# The go command keeps its config and telemetry under the user config dir.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
# Telemetry off: in its default "local" mode the go command starts a
# detached upload process that outlives this script.
mkdir -p "$out/config/go/telemetry"
printf 'off' > "$out/config/go/telemetry/mode"

go build -o "$out/impserve" ./cmd/impserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
