#!/usr/bin/env bash
# Builds the campus benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, e.g.
#
#   bash campusbench/run.sh --workload pole-stream --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and result stays under .bench_build/ at the
# checkout root. The build needs the hawccc module one directory up, so
# without it this script fails before running anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
mkdir -p "$TMPDIR"

# Build unless the binary is newer than every Go source and module file.
bin="$out/campusbench"
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod -o -name go.sum \) -newer "$bin" -print -quit)" ]; then
	(cd "$here" && go build -o "$bin" .)
fi
cd "$root"
exec "$bin" -out "$out/results" "$@"
