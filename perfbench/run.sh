#!/usr/bin/env bash
# Builds the gorace benchmark from the sources of this checkout and runs
# it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload nightly|stream|service --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache and temporary files, the binary, and
# the scratch stores and spans.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a gorace checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out/work" "$@"
