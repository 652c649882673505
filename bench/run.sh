#!/bin/bash
# Builds the benchmark from source and runs it, writing only inside the
# checkout: the Go build cache and the binary go to .bench_build/ at the
# checkout's root, the benchmark's own files to bench/out/.
#
#   bash bench/run.sh --workload mem_write_r3 --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")"
build="$PWD/../.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$build/smarth-bench" . >&2
exec "$build/smarth-bench" "$@"
