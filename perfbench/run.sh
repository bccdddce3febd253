#!/usr/bin/env bash
# Builds perfbench from source and runs one workload. Run it from the root
# of a checkout; everything it builds or writes stays under .bench_build:
#
#   bash perfbench/run.sh --workload offline --seed 1 --seconds 40 --trace 0
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
