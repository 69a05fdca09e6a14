#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from the recorded harness outputs in results/."""

import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")

SECTIONS = [
    ("Table I — dataset statistics", "table1_datasets", """
Paper: Table I (absolute sizes at production scale). Ours: same relative
ordering — NYTimes-like has the largest vocabulary and longest documents,
Yahoo-like the most documents of the labelled pair, NYTimes-like unlabelled.
"""),
    ("Figure 2 — topic coherence & diversity vs selected-topic proportion",
     "fig2_interpretability", """
Paper shape: ContraTopic's coherence curve dominates every baseline at all
proportions while staying near the top on diversity; NSTM is the strongest
baseline; ProdLDA/WLDA sit in the weak band; curves decay as lower-ranked
topics are included.
"""),
    ("Figure 3 — km-Purity / km-NMI", "fig3_clustering", """
Paper shape: ContraTopic competitive on 20NG; ETM-family may edge it on
Yahoo; scores rise with cluster count for purity.
"""),
    ("Table II — ablation study", "table2_ablation", """
Paper shape: Full >= -S > -P ≈ -I > -N, with -N clearly worst and -S the
mildest degradation.
"""),
    ("Figure 4 — sensitivity (20NG-like, Yahoo-like)", "fig4_sensitivity", """
Paper shape: coherence rises with lambda; diversity/purity rise then fall
when lambda gets too large; v rises quickly then plateaus.
"""),
    ("Figure 5 — sensitivity (NYTimes-like)", "fig5_sensitivity_nyt", """
Paper shape: same trends as Figure 4 with a larger lambda scale.
"""),
    ("Figure 6 — backbone substitution", "fig6_backbone", """
Paper shape: the regularizer improves coherence and diversity for every
backbone (ETM, WLDA, WeTe); WLDA benefits most on purity/NMI. The recorded
run below includes the free-decoder budget fix in `fig6_backbone.rs` (WLDA
needs the larger step size the fig2 harness gives it), so the WLDA rows now
show real coherence/purity movement rather than noise-level scores.
"""),
    ("Table III — word-intrusion scores", "table3_intrusion", """
Paper: WIS row LDA .34, ProdLDA .37, WLDA .34, ETM .58, NSTM .68, WeTe .67,
NTMR .29, VTMRL .46, CLNTM .64, ContraTopic .80 — ContraTopic highest.
"""),
    ("Tables IV–VI — case study", "table456_case_study", """
Paper: top-5 topics per model with NPMI and top words, plus LLM-generated
descriptions for ContraTopic (template descriptions here).
"""),
    ("§V-E — computational analysis", "sec5e_compute", """
Paper: NPMI precompute ≈ 30 epochs of training; O(V^2) kernel memory;
65.68 s/epoch on NYTimes with 2 GPUs. Ours: same structure on one CPU core.
"""),
]

# Prose that follows a section's recorded output, by harness name.
AFTER = {
    "sec5e_compute": """
Measured on a 2-vCPU AVX-512 Xeon at the default two pool workers. Each
epoch time is the median of five 2-epoch fits divided by two, printed to
three significant digits; the table above is the middle one of three
runs. The host's speed swings between phases, so single rows move more
than the printed digits suggest: across those three runs the
NYTimes-like ETM epoch read 43.0, 47.2 and 68.4 ms, ContraTopic's 399,
400 and 471 ms, and the ratio 6.9–9.3. The table this replaces printed
one 2-epoch fit in seconds to two decimals, which resolved an ETM epoch
to one or two digits (0.04–0.08 s). Its predecessor (ETM 1.24 s,
ContraTopic 21.72 s per NYTimes-like epoch) predates the blocked SGEMM
kernels.

The ContraTopic/ETM ratio is higher than the paper's because the ETM
epoch here is cheap: the reconstruction term `Σ x ⊙ ln(θ·β)` is one tape
op that touches only the batch's nonzeros (DESIGN.md §10), while the
regularizer's `A·N·Aᵀ` products are dense. Training bits are unchanged
by either change, so every quality table above stands.
""",
}

# Sections with no single harness output file: serving, fan-in and
# streaming, each recorded by hand from the commands it names.
FOOTER = """
## Serving latency — micro-batched inference engine
Regenerate: `cargo run --release -p ct-bench --bin load_gen`
(writes `runs`, `speedup_4t_vs_unbatched` and `speedup_4t_gate`, then
the open-loop `latency_under_load` curve and `p99_gate`, into
`BENCH_serve.json` in the current directory; exits 1 if a gate fails)

No paper counterpart; this benchmarks the `ct-serve` engine (DESIGN.md
§8) on a quick-scale 20NG-like model with the paper's encoder size
(hidden 800, embed 300, K=50, vocab 1200). The baseline is one thread
running one unbatched forward pass per query, straight into the
snapshot; the engine run is 4 closed-loop client threads on one engine
with the response cache disabled, so every query pays for real
inference.

```text
Serving latency (quick-scale 20NG-like, K=50, hidden 800, cache off,
2-vCPU AVX-512 Xeon; provenance in BENCH_serve.json's `host` block)

run            clients  queries   p50 (µs)   p99 (µs)      qps
unbatched_1t         1      400      274.6      367.8   3561.5
engine_4t            4     1600      552.4     1499.4   5773.2

speedup_4t_vs_unbatched: 1.62x   (gated floor: >= 1.1x;
                                  multi-core expectation ~2x, not gated)
```

The engine has no batching timer: the batcher takes whatever queued
while the previous forward pass ran (natural batching), so batches grow
only with concurrency (at 4 clients, 1600 queries ran in ~650 batches of
at most 4).

Five runs of `load_gen` gave 1.68, 1.60, 1.37, 1.62 and 1.52× (the
committed file is the 1.62× run, nearest the median). Three runs of
the separate serving benchmark this replaced, at the parent commit and
alternating with the first three, gave 1.40, 1.29 and 1.49×; it
measured the same two runs (plus 1 and 8 clients) on the same fixture.
The ratio measures queueing amortization on top of an already-sparse
forward pass: the CSR storage backend made the single-document baseline
~2.4× faster by touching only the encoder rows of the terms present, so
4 clients on one core buy one memory pass over the encoder weights
instead of four. A multi-core host adds the pool's data parallelism and
should clear 2×, but that expectation is recorded rather than gated.
The 1.1× floor is a timing gate on a host whose speed swings ±30%, so
it stays out of `cargo test`; the clock-free
`crates/serve/tests/backpressure.rs`
`requests_queued_behind_a_forward_pass_form_the_next_batch` pins that
queued requests share a forward pass.

## Fan-in — epoll reactor with thousands of parked connections
Regenerate: `cargo run --release -p ct-bench --bin load_gen -- --idle-conns 5000`
(requires `ulimit -n` ≥ ~11k; splices the `fan_in` key into `BENCH_serve.json`)

The TCP tier's epoll reactor (DESIGN.md §8) multiplexes every
connection onto an O(cores) thread budget. The bench parks 5000 idle
connections on a self-hosted server, then drives 200 QPS open-loop
through 8 active connections:

```text
Fan-in (reactor transport, 5000 idle conns, 200 QPS open-loop, 2 vCPU)

idle conns attached      5000   (0 failed, 0 dropped by the server)
p50 / p99                1.34 ms / 13.49 ms
no-idle baseline p99     5.39 ms   (bound: within 2x = 10.78 ms: FAIL)
server threads           3         (bound: 4*cores + 16 = 24)
process threads          4
errors                   0 typed / 0 io / 0 connect
```

The whole serving tier stays resident on 3 threads however many clients
park on it: one reactor shard, one engine batcher, one pool worker. No
thread waits for an answer (the shard submits each line with a
completion callback), and the same thread-per-connection server would be
holding 5000 parked OS threads. The tail is another matter on this
shared 2-vCPU host: a p99 over 600 requests swings by an order of
magnitude from run to run. Five fan-in runs at the callback-completion
change gave p99 23.3, 34.3, 5.3, 14.8 and 17.5 ms; five runs of its
parent commit, alternating with them, gave 20.2, 42.7, 3.3, 30.6 and
23.8 ms. That parent passed its 2× bound because its own no-idle p99
was 27–28 ms; the change's was 8 ms, so the same spread failed the bound
in three of five runs. The committed block is one later run, which
fails the bound the same way (13.49 ms against that run's own 5.39 ms
no-idle p99); ROADMAP item 10(c) is the fix. `crates/bench/tests/load_gen_smoke.rs` gates this
shape in the default test command with
`load_gen --smoke --idle-conns 1000`.

## Coherence under drift — streaming continual learning
Regenerate:
```sh
cargo build --release -p ct-cli
# topic birth: 6 planted topics, topic 5 enters the mixture at doc 2000
target/release/contratopic stream --topics 6 --extra-vocab 80 --docs 4000 \\
    --chunk 400 --avg-len 30 --epochs 2 --seed 42 \\
    --drift "birth:5@2000" --trace birth.jsonl
# vocabulary growth: active vocabulary 110 -> 200 words at doc 2000
target/release/contratopic stream --topics 5 --extra-vocab 100 --docs 4000 \\
    --chunk 400 --avg-len 30 --epochs 2 --seed 42 --start-vocab 110 \\
    --drift "vocab:200@2000" --trace growth.jsonl
```

No paper counterpart (the paper's §VI names online topic modeling as
future work; the design is DESIGN.md §11). Both tables below are read
directly off the `stream_chunk` / `drift` events in the trace JSONL of
the commands above: coherence is NPMI over the *stream-so-far*
co-occurrence counts — the same incrementally accumulated kernel the
regularizer trains against — at the top-10% and 100% selected-topic
proportions.

**Topic birth** (6 topics, topic 5 born at doc 2000 — the `drift` event
lands between chunks 4 and 5):

```text
chunk  docs_seen  coherence@10%  coherence@100%
    0        400        +0.3805         +0.0258
    1        800        +0.3993         +0.0749
    2       1200        +0.4005         +0.1168
    3       1600        +0.4047         +0.1357
    4       2000        +0.4084         +0.1548
  ---- drift: topic_birth topic=5 at doc 2000 ----
    5       2400        +0.4123         +0.1651
    6       2800        +0.4134         +0.1701
    7       3200        +0.4093         +0.1698
    8       3600        +0.4040         +0.1801
    9       4000        +0.4013         +0.1809

throughput: 4000 docs in 10 chunks, ~20k docs/sec end-to-end (train+eval)
```

The newborn topic's words only start co-occurring after doc 2000, so
mean coherence@100% keeps climbing (+0.155 → +0.181) as the kernel and
the warm-started model absorb the new cluster, while the best-topic
band (@10%) is briefly diluted (+0.413 → +0.401) — the model re-spreads
probability mass toward the new topic's core words before the NPMI
evidence for them has accumulated.

**Vocabulary growth** (5 topics, active vocabulary 110 → 200 words at
doc 2000):

```text
chunk  docs_seen  coherence@10%  coherence@100%
    0        400        +0.4715         +0.2030
    1        800        +0.4480         +0.2055
    2       1200        +0.4517         +0.2518
    3       1600        +0.4489         +0.2310
    4       2000        +0.4519         +0.2520
  ---- drift: vocab_growth to_words=200 at doc 2000 ----
    5       2400        +0.4423         +0.2511
    6       2800        +0.4364         +0.2516
    7       3200        +0.4333         +0.2565
    8       3600        +0.4340         +0.2460
    9       4000        +0.4331         +0.2480

throughput: 4000 docs in 10 chunks, ~19.5k docs/sec end-to-end (train+eval)
```

The 90 newly active tail words arrive with zero counts in the kernel, so
the top-band coherence takes a small persistent haircut (+0.452 →
+0.433) while the all-topics mean is essentially flat — the planted
cores were active from the start (ids are stable under drift, DESIGN.md
§11), so growth perturbs the tails, not the topic identities. Both
trajectories are *bitwise reproducible*: re-running either command, or
killing it mid-stream (`--max-chunks`) and resuming from a
`--checkpoint`, yields these exact numbers (`crates/cli/tests/stream_cli.rs`
holds the replay property; `BENCH_stream.json` holds the serving-side
figures — promotion-gap p99 and zero dropped queries under live
promotion).
"""

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure in the paper's evaluation, the command that
regenerates it, and the recorded output. Absolute numbers are **not**
expected to match the paper: it trains on real 20NG/Yahoo/NYTimes with
GPUs for 100 epochs at K=100; this reproduction trains on synthetic
planted-topic corpora on one CPU core at reduced scale (see DESIGN.md §1
for each substitution and §5b for the calibration findings). What must
match is the *shape*: who wins, roughly by how much, and where trade-offs
appear.

Recorded with:

```sh
scripts/run_all_experiments.sh   # CT_SCALE / seeds per harness as noted in each block
```

Every harness runs its trials through the `ct-exp` run ledger
(`results/ledger/trials.jsonl`, see DESIGN.md §9): trials shared between
figures — fig3's grid is a subset of fig2's at the same scale, Table II's
full variant is fig2's ContraTopic, fig4's default sweep point likewise —
are trained **once** and served from the ledger everywhere else, and
re-running a completed harness retrains nothing. Harnesses that run more
than one seed (fig2, fig3 and Table II default to 2; override with
`CT_SEEDS`) report the **mean over seeds** in the tables below, with
±population-std where the table format carries it; each harness also
writes a machine-readable aggregate with mean±std per metric and paired
bootstrap significance to `results/exp_<name>.{json,md}`.

## Known deviations from the paper's shape

1. **NSTM/WeTe diversity.** On the planted-cluster corpora, the pure
   embedding-geometry models (NSTM, WeTe) reach higher topic diversity
   than ContraTopic. Their transport objectives perform (soft) spherical
   clustering of word embeddings, and the generator's clusters are exactly
   recoverable that way even after the out-of-domain embedding noise; the
   messy redundancy these models exhibit on real corpora (the "certain
   gap" in the paper's §V-F, the collapse ECRTM documents) cannot be fully
   reproduced by a clean generative corpus. Their *coherence* behaviour —
   NSTM competitive with ContraTopic on 20NG, both above all other
   baselines — does match the paper.
2. **Absolute NPMI levels** are lower than the paper's (our planted-NPMI
   ceiling at quick scale is ~0.55 for a perfectly recovered cluster, and
   the hard presets put most mass off-cluster), so compare *within* a
   table, not across to the paper's absolute values.
3. **Table II ablation order.** The committed 2-seed Table II
   (`results/exp_table2.md`) does not follow the paper's
   "Full >= -S > -P ≈ -I > -N". Dropping the positive term (-P) is level
   with or above Full on coherence: coh@10 0.3537 vs 0.3507, coh@50
   0.3010 vs 0.2969. Dropping sampling (-S) leads on km-Purity@50: 0.3170
   vs 0.2195. Two seeds cannot say which of these differences are real;
   more seeds (`CT_SEEDS`) are a run-time choice, and ROADMAP item 14's
   claims report is the planned test.
"""


def main() -> int:
    out = [HEADER]
    for title, name, commentary in SECTIONS:
        out.append(f"\n## {title}\n")
        out.append(f"Regenerate: `cargo run --release -p ct-bench --bin {name}`\n")
        out.append(commentary)
        path = os.path.join(ROOT, "results", f"{name}.txt")
        if os.path.exists(path) and os.path.getsize(path) > 0:
            with open(path) as f:
                content = f.read().rstrip()
            out.append("\n```text\n" + content + "\n```\n")
        else:
            out.append("\n*(not recorded in this run — regenerate with the "
                       "command above)*\n")
        out.append(AFTER.get(name, ""))
    out.append(FOOTER)
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), "w") as f:
        f.write("".join(out))
    print("EXPERIMENTS.md assembled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
