#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the checkout
# and runs it from the checkout root. Everything the build and the run write
# (Go build cache, temp files, the binary, file-store probe directories)
# stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "bench: $root holds no go.mod; the benchmark builds against the engine's source and needs a full checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/totoro-bench" .)
cd "$root"
exec "$out/totoro-bench" "$@"
