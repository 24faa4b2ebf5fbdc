#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload trend --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the Go command's own config and
# telemetry files (XDG_CONFIG_HOME), the binary, scratch stores and row
# directories, and the traced run's artifacts. The build needs nothing
# but the standard library and this repository, so it never asks a
# module proxy (GOPROXY=off).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
