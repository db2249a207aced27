#!/bin/sh
# Multi-process fleet smoke test (CI: fleet-smoke).
#
# Starts three dyncgd worker processes and a consistent-hash front door
# (`dyncgd -fleet`), checks the redesigned wire surface end to end over
# real HTTP — member identity headers, the typed error envelope, the
# fleet-wide response cache, /v1/cluster introspection, a session
# round-trip that pins to the member salted into its ID — then drives
# the fleet with cmd/loadgen for ~10s with a 5% session mix and
# SIGKILLs one worker mid-run. The front door must absorb the kill:
#
#   - zero transport errors at the client (stateless traffic fails over
#     along the ring; session traffic homed on the dead member gets a
#     typed 503 member_down, which is an HTTP answer, not an error),
#   - /v1/cluster and /metrics report the member down,
#   - after the worker restarts, a probe brings it back into rotation,
#   - the front door's fleet-wide replay log's hash chain verifies
#     cleanly after the drain (dyncgd replay -verify-only).
set -eu

cd "$(dirname "$0")/.."

front=${DYNCGD_FLEET_ADDR:-127.0.0.1:19100}
w0=127.0.0.1:19101
w1=127.0.0.1:19102
w2=127.0.0.1:19103
base="http://$front"
duration=${LOADGEN_DURATION:-10s}

echo "==> go build ./cmd/dyncgd ./cmd/loadgen"
go build -o /tmp/dyncgd.fleet ./cmd/dyncgd
go build -o /tmp/loadgen.fleet ./cmd/loadgen

logdir=$(mktemp -d /tmp/dyncgd.fleetlog.XXXXXX)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -f /tmp/dyncgd.fleet /tmp/loadgen.fleet
    rm -rf "$logdir"
}
trap cleanup EXIT

start_worker() { # start_worker <id> <addr> — prints the PID
    /tmp/dyncgd.fleet -addr "$2" -member-id "$1" -fleet-ids m0,m1,m2 \
        -rcache-bytes 0 -log text >"/tmp/dyncgd.fleet.$1.log" 2>&1 &
    echo $!
}

wait_healthy() { # wait_healthy <name> <addr>
    i=0
    until curl -fsS "http://$2/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "fleet_smoke: $1 never became healthy" >&2
            cat "/tmp/dyncgd.fleet.$1.log" >&2 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
}

p0=$(start_worker m0 "$w0")
p1=$(start_worker m1 "$w1")
p2=$(start_worker m2 "$w2")
pids="$p0 $p1 $p2"
wait_healthy m0 "$w0"
wait_healthy m1 "$w1"
wait_healthy m2 "$w2"
echo "==> 3 workers healthy"

# The front door holds the fleet-wide response cache, coalescer, and
# replay log; a short probe period so mark-down and recovery are fast.
/tmp/dyncgd.fleet -addr "$front" \
    -fleet "m0=http://$w0,m1=http://$w1,m2=http://$w2" \
    -probe-interval 200ms -log text -log-dir "$logdir" \
    2>/tmp/dyncgd.fleet.frontdoor.log &
fdpid=$!
pids="$pids $fdpid"
wait_healthy frontdoor "$front"
echo "==> front door healthy"

sys='[[[0],[0]],[[1,2],[0]],[[0],[20,-1]]]'

expect() { # expect <label> <needle> <haystack>
    case "$3" in
    *"$2"*) echo "==> $1 OK" ;;
    *)
        echo "fleet_smoke: $1: expected $2 in: $3" >&2
        exit 1
        ;;
    esac
}

# One-shot through the front door: the answer carries the member that
# computed it and the API version.
hdr=$(curl -fsS -D - -X POST "$base/v1/closest-point-sequence" \
    -H 'Content-Type: application/json' -d "{\"v\":1,\"system\":$sys,\"origin\":0}")
expect "one-shot" '"algorithm":"closest-point-sequence"' "$hdr"
expect "member header" 'X-Dyncg-Member: m' "$hdr"
expect "api version header" 'X-Dyncg-Api-Version: 1' "$hdr"
expect "source header" 'X-Dyncg-Source: computed' "$hdr"

# A byte-identical repeat is served by the front door's fleet-wide
# cache without touching a worker.
hdr=$(curl -fsS -D - -o /dev/null -X POST "$base/v1/closest-point-sequence" \
    -H 'Content-Type: application/json' -d "{\"v\":1,\"system\":$sys,\"origin\":0}")
expect "fleet cache" 'X-Dyncg-Source: cache' "$hdr"
expect "cache member" 'X-Dyncg-Member: frontdoor' "$hdr"

# "workers":-1 means the computing worker's GOMAXPROCS, which the front
# door cannot know: such a request is uncacheable at the front door, so
# a repeat is forwarded and computed again, never served from a cache
# entry keyed under some other worker count.
for i in 1 2; do
    hdr=$(curl -fsS -D - -o /dev/null -X POST "$base/v1/closest-point-sequence" \
        -H 'Content-Type: application/json' \
        -d "{\"v\":1,\"system\":$sys,\"origin\":0,\"options\":{\"workers\":-1}}")
    expect "workers:-1 request $i forwarded" 'X-Dyncg-Source: computed' "$hdr"
done

# The typed error envelope on a malformed body.
r=$(curl -sS -X POST "$base/v1/steady-hull" -d '{"v":1,' || true)
expect "error envelope code" '"code":"bad_request"' "$r"
expect "error envelope message" '"message":"' "$r"
case "$r" in
*'"retryable":true'*)
    echo "fleet_smoke: bad_request must not be retryable: $r" >&2
    exit 1
    ;;
esac

# Ring introspection: three healthy members and a key probe.
r=$(curl -fsS "$base/v1/cluster?key=probe-me")
expect "cluster mode" '"mode":"fleet"' "$r"
expect "cluster roster" '"id":"m0"' "$r"
expect "cluster probe" '"key":"probe-me"' "$r"

# Session round-trip: the ID is salted with its home member and every
# follow-up routes there.
r=$(curl -fsS -X POST "$base/v1/sessions" -H 'Content-Type: application/json' \
    -d "{\"v\":1,\"algorithm\":\"closest-point-sequence\",\"system\":$sys,\"origin\":0}")
expect "session create" '"id":"s-m' "$r"
sid=$(printf '%s' "$r" | sed 's/.*"id":"\([^"]*\)".*/\1/')
r=$(curl -fsS -X POST "$base/v1/sessions/$sid/update" -H 'Content-Type: application/json' \
    -d '{"v":1,"deltas":[{"op":"insert","point":[[5],[1,1]]}]}')
expect "session update" '"inserted":[3]' "$r"
r=$(curl -fsS "$base/v1/sessions/$sid/query?verify=1")
expect "session verify" '"verified":true' "$r"
r=$(curl -fsS -X DELETE "$base/v1/sessions/$sid")
expect "session delete" "\"id\":\"$sid\"" "$r"
echo "==> session round-trip OK"

# Sustained load with a 5% session mix; SIGKILL one worker mid-run.
echo "==> loadgen $duration with mid-run SIGKILL of m1"
/tmp/loadgen.fleet -addr "$base" -duration "$duration" -concurrency 8 \
    -dup 0.5 -session-mix 0.05 -seed 7 -json >/tmp/loadgen.fleet.json &
lgpid=$!
sleep 4
kill -9 "$p1"
echo "==> m1 killed"
wait "$lgpid"
summary=$(cat /tmp/loadgen.fleet.json)
echo "$summary"

num() { # num <json> <key> — extracts an integer field
    printf '%s' "$1" | tr ',{}' '\n\n\n' | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" | head -1
}

sent=$(num "$summary" sent)
errors=$(num "$summary" errors)
ok=$(num "$summary" 200)
if [ -z "$sent" ] || [ "$sent" -lt 100 ]; then
    echo "fleet_smoke: loadgen sent only '${sent:-0}' requests" >&2
    exit 1
fi
# The kill must be invisible to stateless traffic: zero transport
# errors. Orphaned sessions answer typed 503s, which land in by_status.
if [ "${errors:-0}" -ne 0 ]; then
    echo "fleet_smoke: $errors transport errors through a single-member kill" >&2
    exit 1
fi
if [ "${ok:-0}" -lt $((sent / 2)) ]; then
    echo "fleet_smoke: only ${ok:-0}/$sent requests answered 200" >&2
    exit 1
fi
echo "==> kill absorbed (sent=$sent errors=0, 200s=$ok)"

# The front door noticed: cluster and metrics report m1 down.
r=$(curl -fsS "$base/v1/cluster")
m1row=$(printf '%s' "$r" | tr '{' '\n' | grep '"id":"m1"' || true)
case "$m1row" in
*'"healthy":false'*) echo "==> cluster marks m1 down" ;;
*)
    echo "fleet_smoke: cluster does not report m1 down: $r" >&2
    exit 1
    ;;
esac
m=$(curl -fsS "$base/metrics")
expect "metrics member_up" 'dyncg_fleet_member_up{member="m1"} 0' "$m"
expect "metrics member labels" 'member="m0"' "$m"

# Restart m1; the 200ms probe brings it back into rotation.
p1=$(start_worker m1 "$w1")
pids="$pids $p1"
wait_healthy m1 "$w1"
i=0
until curl -fsS "$base/metrics" | grep -q 'dyncg_fleet_member_up{member="m1"} 1'; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "fleet_smoke: front door never re-admitted restarted m1" >&2
        exit 1
    fi
    sleep 0.1
done
echo "==> m1 restarted and re-admitted"

# Drain the front door, then verify the fleet-wide replay chain.
kill -TERM "$fdpid"
rc=0
wait "$fdpid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "fleet_smoke: front door exited $rc on SIGTERM" >&2
    cat /tmp/dyncgd.fleet.frontdoor.log >&2
    exit 1
fi
echo "==> front door drain OK"

/tmp/dyncgd.fleet replay -log-dir "$logdir" -verify-only
echo "==> fleet replay chain verified"

echo "fleet_smoke: OK"
