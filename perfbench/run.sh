#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" -out "$out" "$@"
