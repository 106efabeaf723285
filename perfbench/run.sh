#!/usr/bin/env bash
# Builds the routersim benchmark from source and runs it from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload fig13 --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
