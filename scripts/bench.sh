#!/bin/sh
# Continuous benchmark harness for the simulator's hot paths.
#
#   scripts/bench.sh          run the pinned suite and refresh BENCH_perf.json
#   scripts/bench.sh -check   run the pinned suite and gate it against the
#                             committed BENCH_perf.json (CI: bench-smoke)
#
# The suite is BenchmarkPerf*/ in bench_perf_test.go — every Table-1
# primitive x topology x n plus a composite grouping workload, measured
# with -benchmem in steady state on a warm machine — plus BenchmarkServer
# in internal/server: one full daemon request (decode, admission, pool,
# algorithm, encode) on a warm and a cold pool — plus
# BenchmarkServerEndpoint: the same warm request once per serving
# endpoint (all 14 algorithms) — plus
# BenchmarkSessionUpdate in the root package: one session delta batch
# (1/16/64 retargets) vs a full rebuild on the same machine — plus BenchmarkReplayLogAppend in
# internal/replaylog: the computation-log hook, gated at 0 allocs/op
# when recording is disabled. The iteration count is
# pinned (-benchtime 100x) so allocs/op is deterministic and comparable
# across hosts; cmd/benchgate documents the per-metric gate tolerances
# (allocs/op tight, B/op medium, ns/op catastrophic-only — shared runners
# are too noisy for a wall-clock trend gate).
#
# The first invocation runs every benchmark three times (-count 3);
# cmd/benchgate folds the repeats into the median ns/op (and median B/op,
# allocs/op) and records the ns/op spread as ns_min/ns_max next to it,
# so a wall-clock difference can be read against the run-to-run noise
# of the host.
#
# BenchmarkPerfLargeN (the 64k/256k/1M columnar-core scale rows) runs in
# a second invocation at its own pinned count (BENCH_TIME_LARGE, default
# 20x) so the 1M rows stay inside the bench-smoke wall-clock budget;
# allocs/op is deterministic at any fixed iteration count, so the gate
# semantics are unchanged. Rows new to the committed baseline pass the
# -check gate with a note and are pinned on the next refresh, so adding
# a benchmark never breaks CI before its first pin (cmd/benchgate tests
# this explicitly).
#
# BenchmarkServerThroughput (the req/s saturation rows: duplicate ratios
# 0% and 50% plus the uncached baseline at 50%) runs in a third
# invocation WITHOUT -benchmem: per-op allocation under concurrent
# closed-loop load is nondeterministic, and the row's point is the
# higher-is-better req/s metric, which benchgate gates against
# collapses (new < old/6). BENCH_TIME_TP (default 500x) pins its
# iteration count.
set -eu

cd "$(dirname "$0")/.."

benchtime=${BENCH_TIME:-100x}
benchtime_large=${BENCH_TIME_LARGE:-20x}
benchtime_tp=${BENCH_TIME_TP:-500x}
mode=${1:-refresh}

out=$(mktemp)
trap 'rm -f "$out"' EXIT

echo "==> go test -bench 'BenchmarkPerf|BenchmarkServer(Endpoint)?$|BenchmarkSession|BenchmarkReplay' -benchtime $benchtime -count 3 -benchmem"
go test -run '^$' -bench 'BenchmarkPerf($|EndToEnd)|BenchmarkServer(Endpoint)?$|BenchmarkSession|BenchmarkReplay' -benchtime "$benchtime" -count 3 -benchmem . ./internal/server ./internal/replaylog | tee "$out"

echo "==> go test -bench BenchmarkPerfLargeN -benchtime $benchtime_large -benchmem"
go test -run '^$' -bench 'BenchmarkPerfLargeN' -benchtime "$benchtime_large" -benchmem . | tee -a "$out"

echo "==> go test -bench BenchmarkServerThroughput -benchtime $benchtime_tp (no -benchmem: concurrent allocs are nondeterministic)"
go test -run '^$' -bench 'BenchmarkServerThroughput' -benchtime "$benchtime_tp" ./internal/server | tee -a "$out"

case "$mode" in
-check)
    echo "==> benchgate -check BENCH_perf.json"
    go run ./cmd/benchgate -check BENCH_perf.json < "$out"
    ;;
refresh)
    echo "==> benchgate -out BENCH_perf.json"
    go run ./cmd/benchgate -out BENCH_perf.json -benchtime "$benchtime" < "$out"
    ;;
*)
    echo "usage: scripts/bench.sh [-check]" >&2
    exit 2
    ;;
esac
