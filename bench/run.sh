#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments; BENCHMARK.json's command is "bash bench/run.sh".
# Everything the go tool writes (build cache, its own config and
# telemetry) is kept under .bench_build/ in the checkout, and nothing is
# downloaded: the bench module's only requirement is the repository's
# module, replaced by ../ in bench/go.mod.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
