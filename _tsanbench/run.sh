#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root. Build cache, binary and the
# benchmark's temporary files all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/tsanbench"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/_tsanbench" && go build -o "$out/tsanbench" .)
cd "$root"
exec "$out/tsanbench" --out "$out" "$@"
