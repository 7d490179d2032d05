#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload solve-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module cache, the binary)
# stays under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .) >&2
cd "$root"
exec "$out/bench" "$@"
