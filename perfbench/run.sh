#!/usr/bin/env bash
# Builds the hmcsim benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload gups-spread --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build and module caches, temp
# files, Go's config) stays under .bench_build in the current directory,
# and the Go toolchain is pinned to the local one with the module proxy
# off, so the build never leaves the checkout or touches the network.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$bench_dir" && go build -o "$out/hmcsim-bench" .) >&2
exec "$out/hmcsim-bench" --out "$out" "$@"
