#!/bin/sh
# Smoke test for the sustained-load harness: drive `chronus loadgen` in
# both modes against a fresh data directory and require the
# submit-latency SLO to hold. Used by `make loadgen-smoke` and CI.
set -eu

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

fail() { echo "loadgen-smoke: $1"; exit 1; }

go build -o "$workdir/chronus" ./cmd/chronus

data="$workdir/data"

# Submit mode with -train: quick-benchmark, train and preload a model so
# submissions exercise the warm rewrite path.
"$workdir/chronus" -data "$data" loadgen -train -n 500 -rate 1000 \
    >"$workdir/submit.out" 2>&1 \
    || { cat "$workdir/submit.out"; fail "submit-mode loadgen failed"; }
grep -q '^ops         500 ' "$workdir/submit.out" \
    || { cat "$workdir/submit.out"; fail "submit-mode report lacks its 500 ops"; }

# Predict mode reuses the trained model in the same data directory.
"$workdir/chronus" -data "$data" loadgen -mode predict -n 200 -concurrency 4 \
    >"$workdir/predict.out" 2>&1 \
    || { cat "$workdir/predict.out"; fail "predict-mode loadgen failed"; }
grep -q '^ops         200 ' "$workdir/predict.out" \
    || { cat "$workdir/predict.out"; fail "predict-mode report lacks its 200 ops"; }

# The persisted chain-latency buckets must satisfy the stock budget.
slo=$("$workdir/chronus" -data "$data" slo) \
    || { echo "$slo"; fail "chronus slo failed"; }
echo "$slo" | grep -q 'status      met' || { echo "$slo"; fail "submit SLO violated"; }

echo "loadgen-smoke: ok"
