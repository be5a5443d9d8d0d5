#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload mont283 --seed 1 --seconds 25 --trace 0
#
# Every file the build writes (Go build cache, temporary files, the binary)
# goes under .bench_build/ in the checkout. The last line of standard output
# is the result object; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
PERFBENCH_COMMIT="$commit" exec "$build/perfbench" "$@"
