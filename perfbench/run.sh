#!/usr/bin/env bash
# Builds `lamb` and the benchmark program from the checkout in the current
# directory, then runs one benchmark pass. Every build output, Go cache
# and run file stays under .bench_build in that directory.
#
#   bash perfbench/run.sh --workload select-mix --seed 1 --seconds 20 --trace 0
#
# Workloads and metrics are described in perfbench/README.md.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -buildvcs=false -o "$out/lamb" ./cmd/lamb
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -lamb "$out/lamb" -root "$root" -work "$out/run" "$@"
