#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and
# runs it. Every build output, Go cache and trace file stays under
# .bench_build/ at the checkout root. Usage:
#
#   bash perfbench/run.sh --workload ycsb-a --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
