#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run it from the repository
# root:
#
#   sh perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build:
# the Go build and module caches, the binary, the trace cache, server
# state and per-run results. Nothing is fetched over the network.
set -eu

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root; no module sources in $root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
