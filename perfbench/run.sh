#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload retarget --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, the binary, the
# per-commit trained checkpoint, scratch Stage 1 caches) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
state="$root/.bench_build"
mkdir -p "$state/tmp" "$state/config"

export GOCACHE="$state/gocache"
export GOPATH="$state/gopath"
export GOTMPDIR="$state/tmp"
export TMPDIR="$state/tmp"
export XDG_CONFIG_HOME="$state/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$state/perfbench" .)
exec "$state/perfbench" --root "$root" --state "$state" "$@"
