#!/usr/bin/env bash
# Builds the ringperf benchmark from source and runs it, from the root of
# a checkout:
#
#   bash ringperf/run.sh --workload daemon-agreed-1350 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — the binary, the Go build
# cache, profiles — goes under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/ringperf"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# Outside a git work tree the run record names the source by digest.
RINGPERF_SOURCE_DIGEST="$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
export RINGPERF_SOURCE_DIGEST

go -C ringperf build -o "$out/ringperf" .
exec "$out/ringperf" "$@" --scratch "$out"
