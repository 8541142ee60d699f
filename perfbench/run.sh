#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through (see perfbench/README.md).  Run it from the
# repository root.  All build state lives under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME="$build/config" # where go would keep telemetry counters
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
  PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
  export PERFBENCH_COMMIT
fi
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" -outdir "$build" "$@"
