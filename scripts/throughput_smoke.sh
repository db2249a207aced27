#!/bin/sh
# Serving throughput smoke test (CI: throughput-smoke).
#
# Starts a single dyncgd (response cache and coalescing at their
# defaults) with a replay log, drives it with cmd/loadgen for ~10s at a
# 50% duplicate ratio and a small session mix, and asserts that
#
#   - loadgen finished with zero transport errors and nonzero load,
#   - the front door actually absorbed duplicates: the loadgen source
#     split reports cache or coalesced responses, and /metrics agrees
#     (dyncg_rcache_hits_total + dyncg_coalesce_inflight_merged_total > 0),
#   - after a SIGTERM drain, the recorded replay log's hash chain
#     verifies cleanly (dyncgd replay -verify-only). Full re-execution
#     is the replay battery's job; under concurrent load the interleaved
#     pool state is nondeterministic, but the chain must always verify.
set -eu

cd "$(dirname "$0")/.."

addr=${DYNCGD_ADDR:-127.0.0.1:18090}
base="http://$addr"
duration=${LOADGEN_DURATION:-10s}

echo "==> go build ./cmd/dyncgd ./cmd/loadgen"
go build -o /tmp/dyncgd.tp ./cmd/dyncgd
go build -o /tmp/loadgen.tp ./cmd/loadgen

logdir=$(mktemp -d /tmp/dyncgd.tplog.XXXXXX)
/tmp/dyncgd.tp -addr "$addr" -log text -log-dir "$logdir" 2>/tmp/dyncgd.tp.log &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -f /tmp/dyncgd.tp /tmp/loadgen.tp; rm -rf "$logdir"' EXIT

i=0
until curl -fsS "$base/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "throughput_smoke: daemon never became healthy" >&2
        cat /tmp/dyncgd.tp.log >&2
        exit 1
    fi
    sleep 0.1
done
echo "==> healthz OK"

echo "==> loadgen $duration at 50% duplicates"
summary=$(/tmp/loadgen.tp -addr "$base" -duration "$duration" -concurrency 8 \
    -dup 0.5 -session-mix 0.05 -seed 7 -json)
echo "$summary"

num() { # num <json> <key> — extracts a top-level or by_source integer
    printf '%s' "$1" | tr ',{}' '\n\n\n' | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" | head -1
}

sent=$(num "$summary" sent)
errors=$(num "$summary" errors)
cache=$(num "$summary" cache)
coalesced=$(num "$summary" coalesced)
if [ -z "$sent" ] || [ "$sent" -lt 100 ]; then
    echo "throughput_smoke: loadgen sent only '${sent:-0}' requests" >&2
    exit 1
fi
if [ "${errors:-0}" -ne 0 ]; then
    echo "throughput_smoke: loadgen reported $errors transport errors" >&2
    exit 1
fi
if [ "$((${cache:-0} + ${coalesced:-0}))" -lt 1 ]; then
    echo "throughput_smoke: no cache or coalesce hits in the loadgen source split" >&2
    exit 1
fi
echo "==> duplicates absorbed (cache=${cache:-0} coalesced=${coalesced:-0})"

metrics=$(curl -fsS "$base/metrics")
rhits=$(printf '%s\n' "$metrics" | awk '/^dyncg_rcache_hits_total/ {print $2}')
merged=$(printf '%s\n' "$metrics" | awk '/^dyncg_coalesce_inflight_merged_total/ {print $2}')
if [ "$(( ${rhits:-0} + ${merged:-0} ))" -lt 1 ]; then
    echo "throughput_smoke: /metrics shows no front-door hits (rcache=$rhits merged=$merged)" >&2
    exit 1
fi
echo "==> metrics agree (rcache_hits=$rhits coalesce_merged=$merged)"

kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "throughput_smoke: daemon exited $rc on SIGTERM" >&2
    cat /tmp/dyncgd.tp.log >&2
    exit 1
fi
echo "==> graceful drain OK"

/tmp/dyncgd.tp replay -log-dir "$logdir" -verify-only
echo "==> replay chain verified"

echo "throughput_smoke: OK"
