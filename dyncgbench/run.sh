#!/usr/bin/env bash
# Builds dyncgd and the benchmark from the tree under test, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash dyncgbench/run.sh --workload solve-mix --seed 1 --seconds 40 --trace 0
#   bash dyncgbench/run.sh --summary
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/dyncgd || ! -f dyncgbench/go.mod ]]; then
  echo "dyncgbench: run from the repository root (cmd/dyncgd not found)" >&2
  exit 2
fi
work="$PWD/.bench_build"
mkdir -p "$work/gotmp"
# The go command's caches, temporary files and telemetry counters (under
# XDG_CONFIG_HOME) all go to the work directory.
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/gotmp" TMPDIR="$work/gotmp"
export XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$work/dyncgd" ./cmd/dyncgd
(cd dyncgbench && go build -o "$work/dyncgbench" .)
exec "$work/dyncgbench" -dyncgd "$work/dyncgd" -work "$work" "$@"
