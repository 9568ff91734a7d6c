#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload firestorm --seed 1 --seconds 10 --trace 0
#
# The Go build cache and module cache live under .bench_build, and module
# downloads are disabled: the benchmark depends only on the rmtk module in
# the parent directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/perfbench.work" "$@"
