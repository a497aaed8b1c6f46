#!/bin/sh
# Smoke test for `chronus serve`: journal a quick benchmark into a fresh
# data directory, boot the exposition server on it, and require
# /metrics, /healthz and /trace to answer 200 with the expected shapes,
# /trace replaying the benchmark's span from the journal. Used by
# `make serve-smoke` and CI.
set -eu

workdir=$(mktemp -d)
logfile="$workdir/serve.log"
pid=""
cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() { echo "serve-smoke: $1"; exit 1; }

go build -o "$workdir/chronus" ./cmd/chronus

"$workdir/chronus" -data "$workdir/data" benchmark -quick >"$workdir/benchmark.log" 2>&1 \
    || { cat "$workdir/benchmark.log"; fail "chronus benchmark -quick failed"; }

# Port 0 lets the kernel pick; the server prints the resolved address.
"$workdir/chronus" -data "$workdir/data" serve -addr 127.0.0.1:0 >"$logfile" 2>&1 &
pid=$!

base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's#.*on \(http://[0-9.:]*\)$#\1#p' "$logfile" | head -n1)
    [ -n "$base" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "serve-smoke: server died:"; cat "$logfile"; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "serve-smoke: server never announced its address:"; cat "$logfile"; exit 1; }

health=$(curl -fsS "$base/healthz") || fail "/healthz not 200"
echo "$health" | grep -q '"status":"ok"' || fail "/healthz body: $health"

ct=$(curl -fsS -o "$workdir/metrics.txt" -w '%{content_type}' "$base/metrics") \
    || fail "/metrics not 200"
case "$ct" in
    text/plain*version=0.0.4*) ;;
    *) fail "/metrics content type: $ct" ;;
esac

curl -fsS -o "$workdir/trace.json" "$base/trace" || fail "/trace not 200"
grep -q '^\[' "$workdir/trace.json" || fail "/trace is not a JSON array"
grep -q '"name":"chronus.benchmark.run"' "$workdir/trace.json" \
    || fail "/trace does not replay the journalled chronus.benchmark.run span"

echo "serve-smoke: ok ($base)"
