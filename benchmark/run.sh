#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache included, stays in the directory named
# by CARGO_TARGET_DIR (default .bench_build), so a run writes nothing
# outside the checkout. The build is offline: the benchmark needs only
# the standard library and the repository's own packages.
#
# The Go module sits under testdata/ so that tools which map changed
# files to packages of the root module (go's ./... patterns, ppatcvet
# -changed) skip it, as they skip every testdata directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOFLAGS=-mod=readonly \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go -C benchmark/testdata build -o "$out/ppatc-benchmark" .
exec "$out/ppatc-benchmark" "$@"
