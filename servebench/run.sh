#!/usr/bin/env bash
# Builds the served-analysis benchmark from source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash servebench/run.sh --workload single-cold --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache and the binary) stays under
# .bench_build in the current directory; nothing is fetched.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out"
export GOPATH="$out/gopath"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
