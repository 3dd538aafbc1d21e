#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it. The
# repository root is the working directory. Everything the Go tool
# writes (build cache, module cache, telemetry counters) is pointed into
# .bench_build/ too, so nothing outside the checkout is touched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
