#!/usr/bin/env bash
# Builds the end-to-end cost-ledger benchmark from the sources of the
# checkout it is run in, then runs it with the given arguments:
#
#   bash ledgerbench/run.sh --workload polysoak --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Every build artefact (binary, Go
# build cache, Go config) stays under .bench_build/ in the checkout, and
# the toolchain is never switched or downloaded. Without the module
# sources next to ledgerbench/ the build fails and the script exits
# non-zero before printing any result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/ledgerbench/go.mod" ]; then
	echo "ledgerbench: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
export GOPROXY=off GOSUMDB=off GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

(cd "$root/ledgerbench" && go build -o "$out/ledgerbench" .)
exec "$out/ledgerbench" "$@"
