#!/usr/bin/env bash
# Builds the benchmark from source inside the current directory (the
# root of a checkout) and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload pagerank --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build, so the run reads and writes nothing outside the checkout
# and needs no network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
