#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload tall-weather --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary, result and
# trace files. The last line of standard output is the result object.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
