#!/usr/bin/env bash
# Builds the serving-path benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload hot-paths --seed 1 --seconds 14 --trace 0
#
# Build outputs (binary, Go build cache) and traced-run spans go under
# .bench_build/ in the current directory, so the run reads and writes
# nothing outside the checkout besides the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
