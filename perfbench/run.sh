#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload mem-paper --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository.  Every file the build and the run
# write stays under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
