#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; every argument is passed on (see perfbench/main.go):
#
#   bash perfbench/run.sh --workload fig7-sig --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# $CARGO_TARGET_DIR when it is set, else under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --out "$out/trace" "$@"
