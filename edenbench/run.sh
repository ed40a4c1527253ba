#!/usr/bin/env bash
# Builds the EDEN serving benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments pass through, e.g.
#
#	bash edenbench/run.sh --workload vgg16-gemm --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export EDEN_MODEL_CACHE=$out/model-cache
(cd "$root/edenbench" && go build -o "$out/bin/edenbench" .)
exec "$out/bin/edenbench" -work "$out" "$@"
