#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run from the repository root:
#   bash servebench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build and temporary directories, store files and
# span files stay under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$(dirname "$0")" && go build -o "$out/servebench" .)
exec "$out/servebench" --out "$out" "$@"
