#!/usr/bin/env bash
# Pre-merge gate: formatting, lints-as-errors, and the full test suite.
# Documented in README.md ("Tests"); run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

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
# two suites pin the reactor's resource contracts: 200 parked Unix
# clients cost no threads, and accept at the fd limit backs off instead
# of spinning and serves the waiting client once fds free.
echo "== serve protocol + lifecycle tests (epoll reactor, TCP + Unix)"
cargo test -q -p ct-serve --test protocol
cargo test -q -p ct-serve --test lifecycle
cargo test -q -p ct-serve --test unix_fan_in
cargo test -q -p ct-serve --test accept_emfile

# Latency-under-load + fan-in gate: open-loop TCP traffic against a
# self-hosted fixture server (epoll reactor transport) must keep p99
# under a generous bound with zero lost/errored responses while 1000
# idle connections sit parked on it — and the server's resident thread
# count must stay O(cores), not O(connections). This catches stuck
# batchers, accept-loop stalls, drain regressions, and any slide back
# toward thread-per-connection, not hardware speed.
echo "== load_gen --smoke --idle-conns 1000 (open-loop p99 + fan-in gate)"
cargo run --release -q -p ct-bench --bin load_gen -- --smoke --idle-conns 1000

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
# may not depend on pool worker count or shard fan-out width.
echo "== fit determinism (1 vs 4 workers, shard widths)"
cargo test -q -p ct-models --test fit_determinism
cargo test -q -p contratopic --test fit_determinism

# The perf harness must keep running (and keep its own determinism
# check green) even when nobody regenerates the committed artifacts.
# --smoke also asserts the CSR fast path is actually selected during
# training (via the ct_tensor::csr_matmuls counter) — a silent fallback
# to dense batches fails the gate.
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

# Experiment orchestration must be resumable and deterministic: a tiny
# 2-model × 2-seed grid, interrupted after 2 trials and resumed, must
# produce a report artifact bitwise identical to an uninterrupted run
# at a different worker count — and re-running a completed sweep must
# train nothing.
echo "== experiment ledger resume smoke (run → interrupt → resume)"
cargo build --release -q -p ct-cli
exp_tmp=$(mktemp -d)
trap 'rm -rf "$exp_tmp"' EXIT
exp_a="$exp_tmp/interrupted"
exp_b="$exp_tmp/uninterrupted"
exp_args=(experiment --exp smoke --scale tiny --seeds 2)
CT_NUM_THREADS=1 ./target/release/contratopic "${exp_args[@]}" --op run \
  --ledger "$exp_a/ledger/trials.jsonl" --out "$exp_a" --limit 2 > /dev/null
CT_NUM_THREADS=1 ./target/release/contratopic "${exp_args[@]}" --op resume \
  --ledger "$exp_a/ledger/trials.jsonl" --out "$exp_a" > /dev/null
CT_NUM_THREADS=4 ./target/release/contratopic "${exp_args[@]}" --op run --jobs 2 \
  --ledger "$exp_b/ledger/trials.jsonl" --out "$exp_b" > /dev/null
if ! cmp -s "$exp_a/exp_smoke.json" "$exp_b/exp_smoke.json"; then
  echo "error: resumed aggregate differs from uninterrupted run" >&2
  diff "$exp_a/exp_smoke.json" "$exp_b/exp_smoke.json" >&2 || true
  exit 1
fi
rerun=$(CT_NUM_THREADS=1 ./target/release/contratopic "${exp_args[@]}" --op resume \
  --ledger "$exp_a/ledger/trials.jsonl" --out "$exp_a")
if ! grep -q "smoke: 0 trained, 4 from ledger" <<< "$rerun"; then
  echo "error: re-running a completed sweep retrained trials:" >&2
  echo "$rerun" >&2
  exit 1
fi

# Distributed-execution crash gate: a three-worker fleet leases trials
# from a shared ledger and one worker is SIGKILLed at a seeded point
# mid-sweep; a second scenario truncates the trials ledger mid-record
# after a completed fleet run and resumes with a fresh fleet. In both,
# the resumed aggregate report must be byte-identical to an
# uninterrupted single-process run, the final aggregation pass must
# train nothing, and lease accounting must bound training (at most
# 1 + reclaims per trial when no ledger bytes were lost). The binary
# cleans up its own scratch directory on success.
echo "== exp_torture --smoke (worker SIGKILL + ledger truncation fleet gate)"
cargo build --release -q -p ct-bench --bin exp_torture
./target/release/exp_torture --smoke

# Streaming continual-learning smoke: a bounded drifting stream killed
# after 2 chunks and resumed from its checkpoint must replay the exact
# per-chunk coherence trajectory of an uninterrupted run, and a live
# run must hot-promote snapshots while a concurrent query loop sees no
# failures for as long as the server is up.
echo "== contratopic stream smoke (kill/resume replay + live promotion)"
stream_tmp=$(mktemp -d)
stream_args=(stream --topics 3 --extra-vocab 30 --docs 600 --chunk 100
  --avg-len 18.0 --epochs 1 --batch 64 --start-vocab 61
  --drift "vocab:90@300,birth:2@300" --checkpoint-every 1)
./target/release/contratopic "${stream_args[@]}" \
  --checkpoint "$stream_tmp/full/ckpt" --trace "$stream_tmp/full.jsonl" 2> /dev/null
./target/release/contratopic "${stream_args[@]}" --max-chunks 2 \
  --checkpoint "$stream_tmp/kr/ckpt" --trace "$stream_tmp/kr.jsonl" 2> /dev/null
./target/release/contratopic "${stream_args[@]}" \
  --checkpoint "$stream_tmp/kr/ckpt" --trace "$stream_tmp/kr.jsonl" 2> /dev/null
if ! cmp -s <(grep '"event":"stream_chunk"' "$stream_tmp/full.jsonl") \
            <(grep '"event":"stream_chunk"' "$stream_tmp/kr.jsonl"); then
  echo "error: resumed stream trajectory differs from uninterrupted run" >&2
  diff <(grep '"event":"stream_chunk"' "$stream_tmp/full.jsonl") \
       <(grep '"event":"stream_chunk"' "$stream_tmp/kr.jsonl") >&2 || true
  exit 1
fi
./target/release/contratopic "${stream_args[@]}" --tcp 127.0.0.1:7461 \
  --promote-every 2 --hold-ms 2000 --trace "$stream_tmp/live.jsonl" 2> /dev/null &
stream_pid=$!
sleep 0.4
stream_qok=0
stream_qfail=0
while kill -0 "$stream_pid" 2> /dev/null; do
  if ./target/release/contratopic query --tcp 127.0.0.1:7461 \
      --text "space nasa orbit launch" > /dev/null 2>&1; then
    stream_qok=$((stream_qok + 1))
  elif kill -0 "$stream_pid" 2> /dev/null; then
    # Only a failure while the pipeline is still up counts as a drop;
    # refusals after it drains and exits are the expected end of life.
    stream_qfail=$((stream_qfail + 1))
  fi
  sleep 0.05
done
wait "$stream_pid"
if [ "$stream_qfail" -ne 0 ] || [ "$stream_qok" -eq 0 ]; then
  echo "error: live stream dropped queries (ok=$stream_qok failed=$stream_qfail)" >&2
  exit 1
fi
if ! grep -q '"event":"promotion".*"ok":true' "$stream_tmp/live.jsonl"; then
  echo "error: live stream run recorded no successful promotion" >&2
  exit 1
fi
rm -rf "$stream_tmp"

echo "== check.sh: all gates passed"
