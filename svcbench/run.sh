#!/usr/bin/env bash
# Builds the service benchmark from source and runs it:
#
#   bash svcbench/run.sh --workload zipf-tenants --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# Go build cache, binary, data dirs, span files — goes under .bench_build/
# in the current directory. The build needs the repository's own module
# one directory up from this script; without it the build fails and so
# does the run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOPATH="$out/gopath"
# The go command's own config and telemetry counters live under the user
# config dir; keep them inside the build directory too.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/svcbench" .)
exec "$out/svcbench" -work "$out/svcbench-work" "$@"
