#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. BENCHMARK.json names this script as its command.
#
# Everything the Go tool writes (build cache, module cache, its own
# config) is sent to bench/.build/, so a run reads and writes nothing
# outside the benchmark's own directory. The first run in a checkout
# compiles the standard library into that cache; later runs only check it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -C "$here" -o "$build/eyeorg-bench" .
cd "$(dirname "$here")"
exec "$build/eyeorg-bench" "$@"
