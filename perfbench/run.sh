#!/usr/bin/env bash
# Builds ecrpqd and the benchmark program from this checkout's sources,
# then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Everything it builds, generates or records stays under .bench_build
# (or $CARGO_TARGET_DIR when set), including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ecrpqd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/ecrpqd and perfbench/)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOTELEMETRY=off

go build -o "$out/bin/ecrpqd" ./cmd/ecrpqd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -ecrpqd "$out/bin/ecrpqd" -work "$out" -golden perfbench/testdata/golden.json "$@"
