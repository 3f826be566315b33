#!/usr/bin/env bash
# Builds the shipped programs (curtain, fwdns, adnsd) and the benchmark
# program from source, then runs one benchmark workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes lands under .bench_build/ in the current
# directory, including the Go build cache and the go command's own
# configuration and telemetry files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-trimpath
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/curtain" ]; then
	echo "perfbench: $root is not the repository root (no go.mod or cmd/curtain)" >&2
	exit 2
fi
mkdir -p "$out/bin"
go build -o "$out/bin/" ./cmd/curtain ./cmd/fwdns ./cmd/adnsd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
