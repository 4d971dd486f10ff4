#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash ebsbench/run.sh --workload sim --seed 1 --seconds 24 --trace 0
#
# Build outputs (binary, Go build cache, the go command's scratch and
# config directories) and span files stay under .bench_build/ in the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/ebsbench/go.mod" ]]; then
	echo "ebsbench: no ebslab source here; run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/ebsbench" && go build -o "$out/ebsbench" .)
exec "$out/ebsbench" "$@"
