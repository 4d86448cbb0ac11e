#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ (Go's build cache
# included, so nothing is written outside the checkout) and runs it with
# the arguments given. Run from the repository root.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOPATH="${GOPATH:-$PWD/.bench_build/gopath}"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
go build -o .bench_build/rtcbench ./benchmark
exec .bench_build/rtcbench "$@"
