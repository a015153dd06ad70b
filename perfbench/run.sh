#!/usr/bin/env bash
# Builds the benchmark and the tileserve binary of the checkout it sits in,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload figures|plan-serve|stencil-run|all \
#        --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build product, cache and scratch
# file goes under .bench_build/ in that root, so the run reads and writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/tileserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/tileserve and perfbench/ must exist)" >&2
	exit 2
fi

work="$root/.bench_build"
mkdir -p "$work/bin" "$work/gocache" "$work/gopath" "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOENV=off

go build -o "$work/bin/tileserve" ./cmd/tileserve
(cd "$root/perfbench" && go build -o "$work/bin/perfbench" .)

# The commit under test: git when the checkout is a repository, otherwise a
# digest of the Go sources the binaries were built from.
commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)
if [[ -z "$commit" ]]; then
	commit="src-$(find "$root/cmd" "$root/internal" "$root/go.mod" -name '*.go' -o -name go.mod | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi

exec "$work/bin/perfbench" -tileserve "$work/bin/tileserve" -work "$work" -commit "$commit" "$@"
