#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload small-jobs --seed 1 --seconds 10 --trace 0
#
# The toolchain's caches, the binary and every file a run writes stay
# under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
