#!/usr/bin/env bash
# Pre-merge gate: formatting, lints-as-errors, and the full test suite.
# Documented in README.md ("Tests"); run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Includes tests/source_lints.rs: no eprintln! in library crates (they
# report through ct_models::trace), and FNV-1a and JSON string escaping
# only in ct-tensor's codec module.
echo "== cargo test -q"
cargo test -q --workspace

# Checkpoint robustness must hold even when someone filters the default
# test run: every single-byte flip and truncation of every artifact kind
# (parameter checkpoint, model bundle, stream checkpoint, beta export)
# must be a typed error, and the container and codecs keep their suites.
echo "== artifact corruption tests"
cargo test -q -p ct-exp --test artifact_corruption
cargo test -q -p ct-tensor codec
cargo test -q -p ct-tensor checkpoint
cargo test -q -p ct-models bundle

# Incremental NPMI must be exact: feeding a drifting stream chunk by
# chunk through CoocAccumulator (including a serialize/restore cycle
# mid-stream) must be bitwise identical to one batch pass — this is the
# invariant the streaming pipeline's kill-and-resume replay rests on.
echo "== incremental-NPMI property suite"
cargo test -q -p ct-corpus --test stream_npmi

# Serving-path invariants: served theta must stay bitwise identical to
# offline inference, and a saturated queue must degrade to a typed
# backpressure error rather than a panic or a silent drop.
echo "== serve determinism + backpressure tests"
cargo test -q -p ct-serve --test determinism
cargo test -q -p ct-serve --test backpressure

# Network-tier invariants: hostile request lines (oversized, binary,
# unknown-model, mid-line disconnect, byte-at-a-time framing) come back
# as typed single-line JSON errors on a surviving connection; TCP,
# Unix-socket and offline inference serve identical bytes — including
# across mid-traffic hot promotion; shutdown drains in-flight requests
# instead of dropping them; and fair-share admission protects a tenant
# from a noisy neighbor saturating the global budget. Every case runs
# once, on the epoll reactor that serves both listener kinds. The last
# three suites pin the reactor's resource contracts: 200 parked Unix
# clients cost no threads, accept at the fd limit backs off instead of
# spinning and serves the waiting client once fds free, and a client that
# closes with a request in flight leaves its shard idle.
echo "== serve protocol + lifecycle tests (epoll reactor, TCP + Unix)"
cargo test -q -p ct-serve --test protocol
cargo test -q -p ct-serve --test lifecycle
cargo test -q -p ct-serve --test unix_fan_in
cargo test -q -p ct-serve --test accept_emfile
cargo test -q -p ct-serve --test closed_client

# Streaming-pipeline gates: the generator must sweep a drifting stream
# out-of-core, a concurrent client must see zero failed queries across
# every hot promotion, and a NaN-poisoned snapshot must be rejected as
# a typed InvalidSnapshot while the old generation keeps serving.
echo "== stream_bench --smoke (zero-dropped-queries + poisoned promotion)"
cargo build --release -q -p ct-bench --bin stream_bench
smoke_tmp=$(mktemp -d)
# Run in a scratch directory: the smoke run writes a BENCH_stream.json
# of its own and must not clobber the committed full-run artifact.
(cd "$smoke_tmp" && "$OLDPWD/target/release/stream_bench" --smoke > /dev/null)
rm -rf "$smoke_tmp"

# Data-parallel training must be bitwise deterministic: trained params
# may not depend on the pool worker count.
echo "== fit determinism (1 vs 4 workers)"
cargo test -q -p ct-models --test fit_determinism
cargo test -q -p contratopic --test fit_determinism

# The perf harness must keep running (and keep its own determinism
# check green) even when nobody regenerates the committed artifacts.
# --smoke also asserts the CSR fast path is actually selected during
# training (via the ct_tensor::csr_matmuls counter) — a silent fallback
# to dense batches fails the gate. crates/models/tests/csr_route.rs pins
# the same route exactly in the default test run.
echo "== perf_snapshot --smoke (incl. CSR-path-selected assertion)"
cargo run --release -q -p ct-bench --bin perf_snapshot -- --smoke

# Kernel perf regression gate: regenerate BENCH_sgemm.json in scratch
# directories (the committed artifact is left untouched) and fail if any
# op's GFLOP/s dropped more than 10% below the committed snapshot. Three
# fresh runs are taken and the gate compares best-of-runs per op — on a
# shared box, scheduler noise is one-sided, so only a real kernel
# regression can drag all three runs below the floor.
echo "== sgemm perf regression gate (<=10% vs committed BENCH_sgemm.json)"
cargo build --release -q -p ct-bench --bin perf_snapshot
perf_tmp=$(mktemp -d)
for i in 1 2 3; do
  mkdir -p "$perf_tmp/$i"
  (cd "$perf_tmp/$i" && "$OLDPWD/target/release/perf_snapshot" > /dev/null)
done
python3 scripts/sgemm_gate.py BENCH_sgemm.json \
  "$perf_tmp"/1/BENCH_sgemm.json "$perf_tmp"/2/BENCH_sgemm.json \
  "$perf_tmp"/3/BENCH_sgemm.json
rm -rf "$perf_tmp"

# The public API surface must stay documented: ct-tensor and ct-core
# carry #![warn(missing_docs)], and rustdoc must build without warnings
# for every library crate (ct-cli is excluded only because its bin is
# also named `contratopic`, which collides with the core lib's docs).
echo "== cargo doc --no-deps (warning-free)"
doc_log=$(mktemp)
cargo doc --no-deps -p ct-tensor -p ct-corpus -p ct-models -p contratopic \
  -p ct-eval -p ct-serve -p ct-exp -p ct-bench 2>&1 | tee "$doc_log"
if grep -q "^warning" "$doc_log"; then
  echo "error: cargo doc emitted warnings — document the public API" >&2
  rm -f "$doc_log"
  exit 1
fi
rm -f "$doc_log"

echo "== check.sh: all gates passed"
