#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source
# and runs it from the repository root, keeping everything the build and
# the run write inside the checkout (.bench_build/).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" # the go command keeps counters under the config dir
go -C benchmark build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
