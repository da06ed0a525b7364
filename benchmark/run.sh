#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout root with the given arguments. Everything go writes (build
# cache, module cache, temp files) stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomod" GOTMPDIR="${build}/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "${root}/benchmark" && go build -o "${build}/benchmark" .)
cd "${root}"
exec "${build}/benchmark" "$@"
