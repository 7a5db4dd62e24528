#!/usr/bin/env bash
# Builds the qbench benchmark from source and runs it with the given flags:
#
#   bash qbench/run.sh --workload predict-read --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache, the binary and every
# temporary file stay under .bench_build/ in the current directory, and the
# Go toolchain is told not to reach the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/qbench"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
if ! (cd "$root/qbench" && go build -o "$out/qbench" .); then
	echo "qbench: build failed (run from the repository root with the Go toolchain on PATH)" >&2
	exit 1
fi
exec "$out/qbench" "$@"
