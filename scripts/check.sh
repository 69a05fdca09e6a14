#!/usr/bin/env bash
# Pre-merge gate: formatting, lints-as-errors, and the full test suite.
# Documented in README.md ("Tests"); run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every correctness gate is a test in this run: source lints
# (tests/source_lints.rs), artifact corruption (crates/exp/tests/
# artifact_corruption.rs), incremental-NPMI exactness (crates/corpus/
# tests/stream_npmi.rs), serving determinism, backpressure, protocol,
# lifecycle and reactor resource contracts (crates/serve/tests/), fit
# determinism across worker counts (crates/{models,core}/tests/
# fit_determinism.rs), and the perf_snapshot, stream_bench, load_gen and
# exp_torture smokes (crates/bench/tests/).
echo "== cargo test -q"
cargo test -q --workspace

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
