#!/usr/bin/env bash
# Builds the benchmark and reghd-serve from the checkout in the current
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build and module caches, temporary files, the
# binaries and the per-run scratch directories.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

# With telemetry on (the default "local" mode), every go command forks a
# detached telemetry process that can outlive this script. Turning it off
# in the private config directory above stops that before the first build.
go telemetry off >&2

go build -o "$build/bin/reghd-serve" ./cmd/reghd-serve >&2
(cd benchmark && go build -o "$build/bin/reghd-bench" .) >&2

exec "$build/bin/reghd-bench" -build "$build" -serve-bin "$build/bin/reghd-serve" "$@"
