#!/usr/bin/env bash
# Local CI: formatting, lints, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> qpp-lint: workspace invariants (hot path, determinism, error handling)"
# Enforces no-vecvec (superseding the old Vec<Vec<f64>> grep gate),
# no-alloc-hot-path, no-unordered-float-reduce, no-hashmap-iter-order,
# no-unwrap-lib, no-wallclock-in-model, plus the workspace-level passes
# added with the call graph: hot-path propagation (the alloc/wallclock/
# unwrap rules fire in any function reachable from a hot-path root),
# atomic-ordering-audit, and lock-order cycle detection. Rationale and
# fixes: cargo run -p qpp-lint -- --explain <rule>
cargo run -q -p qpp-lint --release -- crates
# Machine-readable run (graph stats + provenance) published next to the
# BENCH_*.json artifacts; the human gate above already failed on any
# violation, so this run must agree.
cargo run -q -p qpp-lint --release -- --json crates > lint.json
grep -q '"version": 2' lint.json || { echo "lint.json: expected --json v2 output"; exit 1; }
grep -q '"count": 0' lint.json || { echo "lint.json: violations leaked past the human gate"; exit 1; }
if grep -rq "allow(atomic-ordering-audit)" --include="*.rs" crates/*/src; then
    echo "qpp-lint: an atomic-ordering-audit waiver crept in; write the // ordering: justification instead"
    exit 1
fi
echo "qpp-lint OK: workspace clean, lint.json artifact written"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test (QPP_THREADS=1)"
QPP_THREADS=1 cargo test -q --workspace

echo "==> cargo test (default threads)"
cargo test -q --workspace

echo "==> obs smoke: serving example under a tight deadline exports a live trace"
# A 1µs deadline forces client-side fallbacks while the workers still
# drain every request, so the exported JSONL must show the full
# queue_wait -> worker -> predict span chain AND tagged fallbacks.
cargo build -q --release --example serving
TRACE_OUT=$(mktemp /tmp/qpp_trace.XXXXXX.jsonl)
QPP_DEMO_TRAIN=120 QPP_DEMO_REQUESTS=400 QPP_DEADLINE_US=1 \
    QPP_TRACE_OUT="$TRACE_OUT" ./target/release/examples/serving >/dev/null
for stage in queue_wait worker predict; do
    grep -q "\"stage\":\"$stage\"" "$TRACE_OUT" \
        || { echo "obs smoke: no $stage span in $TRACE_OUT"; exit 1; }
done
FALLBACKS=$(sed -n 's/.*"counter":"fallback_answers","value":\([0-9]*\).*/\1/p' "$TRACE_OUT")
if [ -z "$FALLBACKS" ] || [ "$FALLBACKS" -eq 0 ]; then
    echo "obs smoke: expected a nonzero fallback_answers counter, got '${FALLBACKS:-missing}'"
    exit 1
fi
echo "obs smoke OK: spans present, $FALLBACKS fallbacks tagged"
rm -f "$TRACE_OUT"

echo "==> adapt smoke: drifted workload triggers retrain + canary swap end to end"
# The adaptive example injects a 3x elapsed-time drift under a live
# service. Its trace dump must show the whole episode — drift mark,
# retrain span, shadow-score span — and a nonzero canary_swaps counter.
cargo build -q --release --example adaptive_serving
ADAPT_OUT=$(mktemp /tmp/qpp_adapt.XXXXXX.jsonl)
QPP_TRACE_OUT="$ADAPT_OUT" ./target/release/examples/adaptive_serving >/dev/null
for stage in drift retrain shadow_score canary_swap; do
    grep -q "\"stage\":\"$stage\"" "$ADAPT_OUT" \
        || { echo "adapt smoke: no $stage event in $ADAPT_OUT"; exit 1; }
done
SWAPS=$(sed -n 's/.*"counter":"canary_swaps","value":\([0-9]*\).*/\1/p' "$ADAPT_OUT")
if [ -z "$SWAPS" ] || [ "$SWAPS" -eq 0 ]; then
    echo "adapt smoke: expected a nonzero canary_swaps counter, got '${SWAPS:-missing}'"
    exit 1
fi
if grep -rq "qpp-lint: allow(" crates/adapt/src; then
    echo "adapt smoke: crates/adapt/src carries a lint waiver; it must be clean without opt-outs"
    exit 1
fi
echo "adapt smoke OK: drift -> retrain -> shadow_score -> canary_swap chain traced, $SWAPS swap(s)"
rm -f "$ADAPT_OUT"

echo "==> eigensolve + knn-flat gates: solver sub-dominant, IVF p99 flat"
# Two gates off one bench run. (a) The reduced-SVD eigensolver
# (DESIGN.md §14) must keep train_eigensolve under 50% of train_total
# at the largest sweep size. (b) The IVF index (DESIGN.md §17) must
# hold its query p99 within 3x from 1k to 100k reference rows — the
# sub-linear claim — while the same sweep documents the brute scan
# blowing up linearly. The run also refreshes the train_sweep and
# knn_sweep blocks of BENCH_predict.json. A smaller request count
# keeps the predict half of the bench quick — the gates only read
# the sweeps.
cargo build -q --release -p qpp-bench --bin predict_bench
./target/release/predict_bench --requests 1000 --sweep 400,5000,20000 \
    --gate-share 0.5 \
    --knn-sweep 1000,10000,100000 --gate-knn-flat 3.0 >/dev/null

echo "==> serve soak gate: multi-tenant fairness, latency, and throughput"
# The sharded serve pipeline must (a) ration completions by tenant
# weight within 10% under sustained burst overload, (b) hold the
# uncontended client-side p99 under 20 ms, and (c) clear a throughput
# floor. The floor is set well under the ~21k req/s measured on the
# 1-CPU reference box (ROADMAP's ~31k figure is from a larger machine)
# so the gate catches a pipeline regression, not machine noise.
cargo build -q --release -p qpp-bench --bin serve_bench
./target/release/serve_bench --requests 10000 \
    --gate-fairness 0.10 --gate-p99-us 20000 --gate-throughput 12000 \
    >/dev/null
[ -s BENCH_serve.json ] || { echo "serve soak: BENCH_serve.json missing"; exit 1; }
SERVE_MARKS=$(grep -rc "qpp-lint: hot-path" crates/serve/src | awk -F: '{n+=$2} END {print n}')
if [ "${SERVE_MARKS:-0}" -lt 10 ]; then
    echo "serve soak: expected >= 10 hot-path markers in crates/serve/src, found ${SERVE_MARKS:-0}"
    exit 1
fi
if grep -rq "qpp-lint: allow(" crates/serve/src; then
    echo "serve soak: crates/serve/src carries a lint waiver; it must be clean without opt-outs"
    exit 1
fi
echo "serve soak OK: fairness/p99/throughput gates passed, $SERVE_MARKS hot-path markers pinned"

echo "==> equivalence gate: reduced vs dense CCA paths must actually run"
# The svd_equivalence suite is the proof that the fast path matches the
# dense reference; a filtered-out or silently skipped run must fail CI.
EQUIV_OUT=$(cargo test -q -p qpp-ml --test svd_equivalence 2>&1) || {
    echo "$EQUIV_OUT"; exit 1; }
EQUIV_PASSED=$(echo "$EQUIV_OUT" | sed -n 's/.*test result: ok\. \([0-9]*\) passed.*/\1/p' | head -1)
if [ -z "$EQUIV_PASSED" ] || [ "$EQUIV_PASSED" -lt 6 ]; then
    echo "equivalence gate: expected >= 6 svd_equivalence tests to run, got '${EQUIV_PASSED:-none}'"
    exit 1
fi
echo "equivalence gate OK: $EQUIV_PASSED reduced-vs-dense tests ran"

echo "==> ann equivalence gate: IVF vs brute bitwise suite must actually run"
# The ann_equivalence suite proves the IVF index returns bitwise-
# identical neighbors to the serial brute scan (exhaustive probe, ties,
# non-finite rows, thread counts, predictor wiring); a filtered-out or
# silently skipped run must fail CI.
ANN_OUT=$(cargo test -q -p qpp-ml --test ann_equivalence 2>&1) || {
    echo "$ANN_OUT"; exit 1; }
ANN_PASSED=$(echo "$ANN_OUT" | sed -n 's/.*test result: ok\. \([0-9]*\) passed.*/\1/p' | head -1)
if [ -z "$ANN_PASSED" ] || [ "$ANN_PASSED" -lt 7 ]; then
    echo "ann equivalence gate: expected >= 7 ann_equivalence tests to run, got '${ANN_PASSED:-none}'"
    exit 1
fi
echo "ann equivalence gate OK: $ANN_PASSED ivf-vs-brute tests ran"

echo "==> fold equivalence gate: fused vs unfused query projection must actually run"
# The fold_equivalence suite proves the fused projection kᵀP - b
# (DESIGN.md §18) matches the per-query ICD substitution + centered CCA
# gemv it replaced: relative tolerance, top-k agreement on the brute
# and IVF arms, thread-count and scratch-reuse bitwise checks; a
# filtered-out or silently skipped run must fail CI.
FOLD_OUT=$(cargo test -q -p qpp-ml --test fold_equivalence 2>&1) || {
    echo "$FOLD_OUT"; exit 1; }
FOLD_PASSED=$(echo "$FOLD_OUT" | sed -n 's/.*test result: ok\. \([0-9]*\) passed.*/\1/p' | head -1)
if [ -z "$FOLD_PASSED" ] || [ "$FOLD_PASSED" -lt 4 ]; then
    echo "fold equivalence gate: expected >= 4 fold_equivalence tests to run, got '${FOLD_PASSED:-none}'"
    exit 1
fi
echo "fold equivalence gate OK: $FOLD_PASSED fused-vs-unfused tests ran"

echo "CI OK"
