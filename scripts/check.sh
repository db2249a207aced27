#!/bin/sh
# Repository health check: formatting, vet, build, and the full test
# suite under the race detector. CI runs exactly this script; run it
# locally before sending a PR.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> staticcheck"
# Optional locally (skipped when the binary is absent); CI installs it
# and always runs this step.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping"
fi

echo "==> go build"
go build ./...

echo "==> dyncgbench (nested module: vet and test)"
# The root go build/vet/test never compile the nested benchmark module,
# so an API change it depends on would otherwise break it unnoticed.
(cd dyncgbench && go vet ./... && go test ./...)

echo "==> go test -race"
# 20m headroom: the root package carries the full columnar differential
# battery (n up to 65536), which race instrumentation slows well past
# the default 10m per-binary timeout on shared runners.
go test -race -timeout 20m ./...

echo "==> coverage gate"
# Total statement coverage measured at 78.3% when the columnar core and
# its scale-up differential battery landed (76.1% after the replay log,
# 72.5% when the gate was added in PR 2); the floor rides just under
# the measured total so any wholesale loss of test coverage fails fast
# while leaving headroom for refactoring noise.
floor=77.0
go test -coverprofile=coverage.out -timeout 20m ./... >/dev/null
total=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')
rm -f coverage.out
echo "total statement coverage: ${total}% (floor ${floor}%)"
if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t < f) }'; then
    echo "coverage ${total}% fell below the ${floor}% floor" >&2
    exit 1
fi

echo "OK"
