#!/usr/bin/env bash
# Builds the icost benchmark from source and runs it. Run from the root of
# the repository; arguments pass through to the benchmark, e.g.
#   bash icostbench/run.sh --workload cold-build --seed 1 --seconds 10 --trace 0
# Build output and Go caches stay in $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= XDG_CONFIG_HOME="$out/config"
(cd icostbench && go build -o "$out/icostbench" .)
exec "$out/icostbench" --out "$out" "$@"
