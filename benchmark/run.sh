#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root, for example
#
#   bash benchmark/run.sh -workload disk-copy -seed 3 -seconds 20 -trace 0
#
# The binary, the Go build cache and any Go configuration stay under
# .bench_build/ in the checkout, and the build never uses the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go -C benchmark build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfiso-benchmark" .
exec "$out/perfiso-benchmark" "$@"
