#!/usr/bin/env bash
# Builds the wsxperf benchmark driver and runs it with the given flags.
# Run from the repository root, for example:
#
#   bash bench/run.sh --workload submit-heavy --seed 42 --seconds 20 --trace 0
#
# The driver builds cmd/wsxd and cmd/wsxsim itself. Everything the builds
# and the runs write (Go build cache, binaries, data directories, span
# files) stays under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export HOME="$out" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0
go -C bench build -o "$out/bin/wsxperf" ./wsxperf
exec "$out/bin/wsxperf" "$@"
