#!/usr/bin/env bash
# Builds the benchmark and wlserve from this tree, then runs one
# benchmark invocation with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep-exact --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root (Go build cache included). A failed build exits
# non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/wlserve" ./cmd/wlserve)

commit=""
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null || true)" = "$root" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi

cd "$root"
exec "$out/perfbench" --bench-dir perfbench --serve-bin "$out/wlserve" --work-dir "$out" --commit "$commit" "$@"
