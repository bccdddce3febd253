#!/usr/bin/env bash
# diag_smoke.sh — end-to-end smoke for the diagnostics pipeline (the CI
# diag-smoke job; also runnable locally via `make diag-smoke`).
#
# Boots floorpland with fault injection, scripted chaos (the first solve
# panics) and an armed diag dir; forces the panic anomaly over HTTP; and
# verifies:
#
#   1. exactly one anomaly bundle lands in -diag-dir (rate limit holds
#      against the follow-up panic),
#   2. the archive lists manifest.json first plus the runtime dumps,
#   3. /metrics exposes the panic trigger and the post-panic solve's
#      span seconds,
#   4. SIGUSR2 captures an on-demand bundle bypassing the rate limit,
#   5. floorplanctl diag fetches and unpacks a bundle over HTTP.
set -euo pipefail

cd "$(dirname "$0")/.."

DIR=${DIAG_SMOKE_DIR:-$(mktemp -d)}
PORT=${DIAG_SMOKE_PORT:-18790}
BUNDLES="$DIR/bundles"
mkdir -p "$BUNDLES" bin

say() { echo "diag-smoke: $*"; }
die() { say "FAIL: $*"; exit 1; }

go build -o bin/floorpland ./cmd/floorpland
go build -o bin/floorplanctl ./cmd/floorplanctl

bin/floorpland -addr "127.0.0.1:$PORT" -workers 2 \
  -faults seed:7 -chaos script:panic,pass \
  -diag-dir "$BUNDLES" -diag-min-interval 1h -profile-cpu 100ms \
  -log-level warn >"$DIR/floorpland.log" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 50); do
  curl -fsS "localhost:$PORT/healthz" >/dev/null 2>&1 && break
  kill -0 "$PID" 2>/dev/null || { cat "$DIR/floorpland.log"; die "daemon died on boot"; }
  sleep 0.2
done
curl -fsS "localhost:$PORT/healthz" >/dev/null || die "daemon never became healthy"
say "daemon up on :$PORT"

solve() { # $1 = seed; prints the HTTP status code
  curl -s -o /dev/null -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d "{\"problem\": $(cat testdata/problem.golden.json), \"engine\": \"exact\", \"time_limit_ms\": 30000, \"seed\": $1}" \
    "localhost:$PORT/v1/solve"
}

# The chaos script panics on the first solve: the guard layer must
# absorb it (HTTP 500, daemon stays up) and trigger a panic bundle.
code=$(solve 1)
[ "$code" = "500" ] || die "chaos-panic solve returned HTTP $code, want 500"
# A second distinct solve passes (script entry 2) — service recovered.
code=$(solve 2)
[ "$code" = "200" ] || die "post-panic solve returned HTTP $code, want 200"

bundle=""
for _ in $(seq 1 100); do
  bundle=$(ls "$BUNDLES"/bundle-*.tar.gz 2>/dev/null | head -1 || true)
  [ -n "$bundle" ] && break
  sleep 0.1
done
[ -n "$bundle" ] || { cat "$DIR/floorpland.log"; die "no anomaly bundle appeared in $BUNDLES"; }
count=$(ls "$BUNDLES"/bundle-*.tar.gz | wc -l)
[ "$count" = "1" ] || die "$count bundles on disk, want exactly 1 (rate limit)"
say "anomaly bundle: $bundle"

manifest=$(tar -tzf "$bundle")
echo "$manifest" | head -1 | grep -qx 'manifest.json' || die "manifest.json is not the first archive entry"
for f in cpu.pprof heap.pprof goroutines.txt flight.json slo.json metrics.prom; do
  echo "$manifest" | grep -qx "$f" || die "bundle lacks $f (has: $(echo "$manifest" | tr '\n' ' '))"
done
say "bundle manifest complete"

metrics=$(curl -fsS "localhost:$PORT/metrics")
echo "$metrics" | grep -q 'floorpland_diag_bundles_total{trigger="panic"} 1' \
  || die "metrics do not show the panic bundle trigger"
# The post-panic exact solve ran, so its span time is on /metrics.
echo "$metrics" | grep -q '^floorpland_span_seconds_total{engine="exact"' \
  || die "metrics show no exact span seconds after the post-panic solve"
say "metrics expose the trigger and span seconds"

# SIGUSR2: on-demand capture bypasses the anomaly rate limit.
kill -USR2 "$PID"
for _ in $(seq 1 100); do
  count=$(ls "$BUNDLES"/bundle-*.tar.gz 2>/dev/null | wc -l)
  [ "$count" -ge 2 ] && break
  sleep 0.1
done
[ "$count" -ge 2 ] || die "SIGUSR2 produced no bundle"
say "SIGUSR2 bundle captured"

# floorplanctl diag fetches and safely unpacks a bundle over HTTP.
bin/floorplanctl diag -addr "http://localhost:$PORT" -out "$DIR" -unpack >"$DIR/ctl.out"
grep -q 'floorpland-diag/1' "$DIR/ctl.out" || die "floorplanctl did not print the manifest"
say "floorplanctl diag fetched and unpacked a bundle"

kill "$PID"
wait "$PID" 2>/dev/null || true
trap - EXIT
say "OK (artifacts under $DIR)"
