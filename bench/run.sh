#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build
# directory and runs it. Everything the Go toolchain writes (build
# cache included) stays inside the checkout. In a directory that holds
# only BENCHMARK.json and bench/ the build fails — the module under
# test is missing — and this exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/flexer-bench" .) >&2
exec "$out/flexer-bench" "$@"
