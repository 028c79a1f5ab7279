#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind (binary, Go build cache, Go temp files) stays under .bench_build/ in
# the checkout, so the run reads and writes nothing outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
