#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout and runs it with the given arguments. Everything the Go
# toolchain writes (build cache, module path, telemetry counters) is
# redirected into that directory, so a run touches nothing outside the
# checkout it was started in.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/gasf-benchmark" .
exec "$build/gasf-benchmark" "$@"
