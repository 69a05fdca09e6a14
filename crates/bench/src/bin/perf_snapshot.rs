//! Machine-readable performance snapshot of the training hot path.
//!
//! Writes two JSON files into the current directory:
//!
//! - `BENCH_sgemm.json` — best wall-time (and derived GFLOP/s) for the
//!   three SGEMM layouts at training shapes, the square baseline, the three
//!   products of the topic-wise regularizer at the NYTimes-like grid shape
//!   (`M = K·v = 400`, `V = 2400`) and ETM's topic-word gradient. A
//!   provenance header (`ct_bench::provenance`) records the CPU model,
//!   the SIMD level the kernels selected, the core count,
//!   `CT_NUM_THREADS` and the git revision.
//! - `BENCH_train_epoch.json` — min/median/max wall-time of a one-epoch
//!   `fit_contratopic` run on the shared train-epoch fixture, swept over
//!   1/2/4 pool workers with the sharded data-parallel driver engaged
//!   (`micro_batch` < `batch_size`), plus the one-epoch ETM median on the
//!   same fixture and the ContraTopic/ETM ratio (the paper's §V-E cost of
//!   the regularizer). The sweep also asserts the trained parameters are
//!   bitwise identical across worker counts. A `regularizer` block breaks
//!   one step of the topic-wise regularizer at the NYTimes-like grid shape
//!   into its layers, at one worker: the three dense products, the
//!   subset sampler's forward + backward, the whole loss forward +
//!   backward, and the residual the layers leave unexplained. An `etm`
//!   block does the same for one ETM step on a NYTimes-like micro-batch
//!   (256 × 2400, `K` = 40): encoder, β decoder, reconstruction, the whole
//!   step and its residual. A `setup` block times the NYTimes-like quick
//!   `ExperimentContext::build` (the set-up every trial and perfbench's
//!   `setup_s` pay) step by step on the default pool: corpus synthesis,
//!   split, the training split's co-occurrence count, its PPMI, the
//!   eigensolver's CSR products and Gram–Schmidt passes, the embedding
//!   degradation, both NPMI matrices, one whole build, and the residual
//!   the steps leave unexplained.
//!
//! `--smoke` runs the same code paths on a tiny preset with minimal sample
//! counts and writes nothing; `tests/perf_snapshot_smoke.rs` runs it in the
//! default test command so the binary cannot rot.
//!
//! Both documents are built as `Json` values and written one top-level
//! member per line (`Json::emit_members_per_line`), so CI or a human can
//! diff successive snapshots. SGEMM rows report the *best* (minimum) time
//! over the sample loop: on a shared box, interference only ever slows a
//! sample down, so min-time is the stable estimator a ±10% regression gate
//! can be built on, while medians would flake with scheduler noise. The
//! epoch sweep reports min, median and max over five runs after one
//! warm-up (which also spins up the worker pool), so a difference between
//! worker counts can be judged against the spread of each. Note the speedup of the worker sweep is bounded by the
//! *physical* cores of the machine (the `cores` field), not by the worker
//! count.

use std::sync::Arc;
use std::time::Instant;

use contratopic::{
    fit_contratopic, fit_contratopic_traced, relaxed_subset, AblationVariant,
    ContrastiveRegularizer, SimilarityKernel, SubsetSamplerConfig,
};
use ct_bench::{provenance, ExperimentContext};
use ct_corpus::embed::{orthonormalize_columns, ITERS};
use ct_corpus::npmi::CoocAccumulator;
use ct_corpus::{
    degrade_embeddings, generate, train_embeddings, DatasetPreset, NpmiMatrix, Scale, SynthSpec,
};
use ct_models::{fit_etm, EtmBackbone, TrainConfig};
use ct_tensor::codec::json::Json;
use ct_tensor::sgemm::{sgemm_nn_packed, PackedB};
use ct_tensor::{params_to_bytes, pool, Params, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Worker counts swept for `BENCH_train_epoch.json`.
const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

/// Min, median and max of a set of wall times.
#[derive(Clone, Copy)]
struct Spread {
    min_ns: u128,
    median_ns: u128,
    max_ns: u128,
}

/// Wall time of one call.
fn time_once<F: FnOnce()>(f: F) -> u128 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos()
}

/// `f()`, with its wall time added to `*acc`.
fn timed<T>(acc: &mut u128, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_nanos();
    out
}

/// Min, median and max of a non-empty set of wall times.
fn spread_of(mut out: Vec<u128>) -> Spread {
    out.sort_unstable();
    Spread {
        min_ns: out[0],
        median_ns: out[out.len() / 2],
        max_ns: out[out.len() - 1],
    }
}

/// Wall-time spread over `samples` runs after one warm-up.
fn time_spread<F: FnMut()>(samples: usize, mut f: F) -> Spread {
    f(); // warm-up: allocator, caches, worker pool
    spread_of((0..samples).map(|_| time_once(&mut f)).collect())
}

/// Best (minimum) time over `samples` runs after one warm-up. Used for the
/// SGEMM micro-rows: scheduler interference is strictly additive, so the
/// minimum converges on the kernel's true cost and stays reproducible
/// enough for the 10% regression gate in `scripts/check.sh`.
fn time_best<F: FnMut()>(samples: usize, mut f: F) -> u128 {
    f(); // warm-up: allocator, caches, worker pool
    let mut best = u128::MAX;
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos());
    }
    best
}

struct SgemmCase {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    best_ns: u128,
}

/// A synthetic bag-of-words batch in CSR storage: `docs` documents over a
/// `vocab`-word vocabulary, each `draws` random word ids (deduplicated)
/// with counts 1–5.
fn csr_batch(docs: usize, vocab: usize, draws: usize) -> Tensor {
    let mut state = 42u64;
    let mut step = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let rows: Vec<Vec<(u32, f32)>> = (0..docs)
        .map(|_| {
            let mut ids: Vec<u32> = (0..draws).map(|_| (step() % vocab as u64) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.into_iter()
                .map(|id| (id, 1.0 + (step() % 5) as f32))
                .collect()
        })
        .collect();
    Tensor::from_csr(ct_tensor::CsrMatrix::from_rows(docs, vocab, rows))
}

/// The encoder input batch of the `csr_*` rows: 256 documents over a
/// 600-word vocabulary at ~40 distinct words each — the same density as
/// the train-epoch fixture, so the rows measure the storage backend on a
/// realistic batch rather than a best-case one.
fn csr_encoder_batch() -> Tensor {
    csr_batch(256, 600, 40)
}

/// Rows `M = K·v` of the regularizer's subset matrix `A` at the
/// NYTimes-like grid configuration (`K = 40`, `v = 10`).
const REG_M: usize = 400;
/// Vocabulary `V` of the regularizer's `(V, V)` kernel `N` there (≈ 2400).
const REG_V: usize = 2400;

fn sgemm_cases(samples: usize, big_samples: usize) -> Vec<SgemmCase> {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Tensor::randn(256, 256, 1.0, &mut rng);
    let b = Tensor::randn(256, 256, 1.0, &mut rng);
    let x = Tensor::randn(256, 128, 1.0, &mut rng); // activations (B, H)
    let w = Tensor::randn(128, 600, 1.0, &mut rng); // weights (H, V)
    let g = Tensor::randn(256, 600, 1.0, &mut rng); // upstream grad (B, V)
    let xs = csr_encoder_batch(); // sparse encoder input (B, V)
    let we = Tensor::randn(600, 128, 1.0, &mut rng); // encoder weights (V, H)
    let ge = Tensor::randn(256, 128, 1.0, &mut rng); // encoder out grad (B, H)
    let mut cbuf = vec![0.0f32; 256 * 600]; // axpy accumulator rows
    let reg_a = Tensor::randn(REG_M, REG_V, 1.0, &mut rng); // subset matrix A
    let reg_n = Tensor::randn(REG_V, REG_V, 1.0, &mut rng); // kernel N
    let reg_n_packed = PackedB::pack(REG_V, REG_V, reg_n.data()); // N as the regularizer holds it
    let reg_t = Tensor::randn(REG_M, REG_V, 1.0, &mut rng); // T = A·N
    let reg_g = Tensor::randn(REG_M, REG_M, 1.0, &mut rng); // G + Gᵀ
    let theta = Tensor::randn(256, 40, 1.0, &mut rng); // ETM θ (B, K)
    let g_rec = Tensor::randn(256, REG_V, 1.0, &mut rng); // reconstruction grad (B, V)

    vec![
        SgemmCase {
            name: "nn_square",
            m: 256,
            k: 256,
            n: 256,
            best_ns: time_best(samples, || {
                black_box(a.matmul(&b));
            }),
        },
        SgemmCase {
            name: "nt_square",
            m: 256,
            k: 256,
            n: 256,
            best_ns: time_best(samples, || {
                black_box(a.matmul_nt(&b));
            }),
        },
        SgemmCase {
            name: "nn_decoder_fwd",
            m: 256,
            k: 128,
            n: 600,
            best_ns: time_best(samples, || {
                black_box(x.matmul(&w));
            }),
        },
        SgemmCase {
            name: "nt_input_grad",
            m: 256,
            k: 600,
            n: 128,
            best_ns: time_best(samples, || {
                black_box(g.matmul_nt(&w));
            }),
        },
        SgemmCase {
            name: "tn_weight_grad",
            m: 128,
            k: 256,
            n: 600,
            best_ns: time_best(samples, || {
                black_box(x.matmul_tn(&g));
            }),
        },
        // The topic-wise regularizer's three dense products (most of a
        // ContraTopic training step): T = A·N, S = T·Aᵀ and the backward
        // (G + Gᵀ)·T. Few samples: each is hundreds of MFLOP. `reg_xn`
        // multiplies a row-major N (packing it per product); the training
        // step runs `reg_xn_packed`, against the kernel packed once.
        SgemmCase {
            name: "reg_xn",
            m: REG_M,
            k: REG_V,
            n: REG_V,
            best_ns: time_best(big_samples, || {
                black_box(reg_a.matmul(&reg_n));
            }),
        },
        SgemmCase {
            name: "reg_xn_packed",
            m: REG_M,
            k: REG_V,
            n: REG_V,
            best_ns: time_best(big_samples, || {
                let mut t = Tensor::zeros(REG_M, REG_V);
                sgemm_nn_packed(REG_M, reg_a.data(), &reg_n_packed, t.data_mut());
                black_box(t);
            }),
        },
        SgemmCase {
            name: "reg_quad_nt",
            m: REG_M,
            k: REG_V,
            n: REG_M,
            best_ns: time_best(big_samples, || {
                black_box(reg_t.matmul_nt(&reg_a));
            }),
        },
        SgemmCase {
            name: "reg_dx",
            m: REG_M,
            k: REG_M,
            n: REG_V,
            best_ns: time_best(big_samples, || {
                black_box(reg_g.matmul(&reg_t));
            }),
        },
        // ETM's topic-word gradient dβ = θᵀ·G at the grid shape.
        SgemmCase {
            name: "tn_etm_beta_grad",
            m: 40,
            k: 256,
            n: REG_V,
            best_ns: time_best(samples, || {
                black_box(theta.matmul_tn(&g_rec));
            }),
        },
        // CSR rows: GFLOP/s below is *dense-equivalent* (flops = 2mkn as
        // if every zero were multiplied) — the honest way to read the
        // sparse speedup, since the kernels produce bitwise-identical
        // output to their dense counterparts while skipping the zeros.
        SgemmCase {
            name: "csr_encoder_fwd",
            m: 256,
            k: 600,
            n: 128,
            best_ns: time_best(samples, || {
                black_box(xs.matmul(&we));
            }),
        },
        SgemmCase {
            name: "csr_weight_grad",
            m: 600,
            k: 256,
            n: 128,
            best_ns: time_best(samples, || {
                black_box(xs.matmul_tn(&ge));
            }),
        },
        // SIMD micro-kernel rows: 4096 calls on length-600 spans per
        // sample (flops = 2 * m * k with n = 1), cycling through 256 rows
        // so the working set is cache-realistic. These isolate the inner
        // loops every sgemm path above is built from.
        SgemmCase {
            name: "simd_axpy",
            m: 4096,
            k: 600,
            n: 1,
            best_ns: time_best(samples, || {
                for i in 0..4096usize {
                    let r = i % 256;
                    ct_tensor::simd::axpy(&mut cbuf[r * 600..(r + 1) * 600], 0.37, g.row(i % 256));
                }
                black_box(&cbuf);
            }),
        },
        SgemmCase {
            name: "simd_dot4",
            m: 4096,
            k: 600,
            n: 1,
            best_ns: time_best(samples, || {
                let mut acc = 0.0f32;
                for i in 0..4096usize {
                    acc += ct_tensor::simd::dot4(g.row(i % 256), g.row((i + 1) % 256));
                }
                black_box(acc);
            }),
        },
    ]
}

/// A millisecond or GFLOP/s figure at the artifacts' three decimals.
fn num3(v: f64) -> Json {
    Json::Num((v * 1e3).round() / 1e3)
}

/// A count as a JSON number.
fn count(n: usize) -> Json {
    Json::Num(n as f64)
}

/// An object from `(key, value)` members, in order.
fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A `BENCH_*.json` document: the provenance header
/// ([`ct_bench::provenance`]) as its leading members, then `members`.
fn bench_doc(members: Vec<(&str, Json)>) -> Json {
    let Json::Obj(mut all) = provenance() else {
        unreachable!("provenance is an object")
    };
    all.extend(members.into_iter().map(|(k, v)| (k.into(), v)));
    Json::Obj(all)
}

/// `BENCH_sgemm.json`: one `ops` row per case, best time and GFLOP/s.
fn sgemm_json(cases: &[SgemmCase]) -> Json {
    let ops = cases
        .iter()
        .map(|c| {
            let flops = 2.0 * (c.m * c.k * c.n) as f64;
            obj(vec![
                ("name", Json::Str(c.name.into())),
                ("m", count(c.m)),
                ("k", count(c.k)),
                ("n", count(c.n)),
                ("best_ns", Json::Num(c.best_ns as f64)),
                ("gflops", num3(flops / c.best_ns.max(1) as f64)), // ns => GFLOP/s
            ])
        })
        .collect();
    bench_doc(vec![
        ("threads", count(pool::configured_threads())),
        ("ops", Json::Arr(ops)),
    ])
}

/// Topics `K` of the NYTimes-like grid configuration; with the sampler's
/// default `v = 10` draws per topic, `M = K·v = REG_M`.
const REG_K: usize = 40;

/// Median one-worker times of one regularizer step's layers.
struct RegBreakdown {
    k: usize,
    v: usize,
    vocab: usize,
    /// `T = A·N` against the packed kernel, the forward kernel product.
    xn: Spread,
    /// `S = T·Aᵀ`, the forward pair scores.
    quad_nt: Spread,
    /// `dA = (G + Gᵀ)·T`, the backward product.
    dx: Spread,
    /// `relaxed_subset` (the fused sampler op), forward and backward.
    sampler: Spread,
    /// `ContrastiveRegularizer::loss`, forward and backward.
    loss: Spread,
}

impl RegBreakdown {
    /// What the loss total spends outside the measured layers (the masks,
    /// the two log-sum-exps and the final sums, tape bookkeeping).
    fn residual_ns(&self) -> i128 {
        let parts =
            self.xn.median_ns + self.quad_nt.median_ns + self.dx.median_ns + self.sampler.median_ns;
        self.loss.median_ns as i128 - parts as i128
    }
}

/// A symmetric `(v, v)` kernel with NPMI-like entries in `[-1, 1]`.
fn symmetric_kernel(v: usize, rng: &mut StdRng) -> Tensor {
    let r = Tensor::randn(v, v, 0.3, rng);
    let mut n = Tensor::zeros(v, v);
    for i in 0..v {
        for j in 0..v {
            n.set(i, j, (0.5 * (r.get(i, j) + r.get(j, i))).clamp(-1.0, 1.0));
        }
    }
    n
}

/// Time one regularizer step and each of its layers, at one worker, on a
/// softmax `beta (K, V)` and a symmetric kernel. The layers run on the
/// operands the step itself builds: `A` is a real relaxed sample of
/// `beta`, `T = A·N`, and the upstream gradient `G` is a random `(M, M)`.
fn regularizer_breakdown(smoke: bool, samples: usize) -> RegBreakdown {
    let (k, vocab) = if smoke { (4, 120) } else { (REG_K, REG_V) };
    let sampling = SubsetSamplerConfig::default();
    let m = k * sampling.v;
    let mut rng = StdRng::seed_from_u64(7);
    let beta = Tensor::randn(k, vocab, 1.0, &mut rng).softmax_rows(1.0);
    let kernel = SimilarityKernel::custom(symmetric_kernel(vocab, &mut rng), "bench");
    let n = kernel.matrix().clone();
    let reg = ContrastiveRegularizer::new(kernel, sampling, AblationVariant::Full);
    let a = {
        let tape = Tape::new();
        let sample = relaxed_subset(&tape, tape.leaf(beta.clone()), &sampling, &mut rng);
        sample.stacked.value().as_ref().clone()
    };
    let g = Tensor::randn(m, m, 1.0, &mut rng);
    let gsym = g.zip(&g.transposed(), |x, y| x + y);
    // `T = A·N`, left in place by the `xn` timing for the two products
    // after it.
    let mut t = Tensor::zeros(m, vocab);
    // Each round times every layer back to back, so a stretch of host
    // slowdown lands on all of them instead of on one layer's samples
    // (which would show up as a residual). The first round is a warm-up.
    let mut ns: [Vec<u128>; 5] = Default::default();
    pool::with_threads(1, || {
        for round in 0..=samples {
            let times = [
                // Into a reused, re-zeroed buffer, as the fused op's
                // scratch does.
                time_once(|| {
                    t.data_mut().fill(0.0);
                    sgemm_nn_packed(m, a.data(), &n, t.data_mut());
                    black_box(&t);
                }),
                time_once(|| {
                    black_box(t.matmul_nt(&a));
                }),
                time_once(|| {
                    black_box(gsym.matmul(&t));
                }),
                time_once(|| {
                    let tape = Tape::new();
                    let sample =
                        relaxed_subset(&tape, tape.leaf(beta.clone()), &sampling, &mut rng);
                    black_box(tape.backward(sample.stacked.sum_all()));
                }),
                time_once(|| {
                    let tape = Tape::new();
                    let loss = reg.loss(&tape, tape.leaf(beta.clone()), &mut rng);
                    black_box(tape.backward(loss));
                }),
            ];
            if round > 0 {
                for (v, t) in ns.iter_mut().zip(times) {
                    v.push(t);
                }
            }
        }
    });
    let [xn, quad_nt, dx, sampler, loss] = ns.map(spread_of);
    RegBreakdown {
        k,
        v: sampling.v,
        vocab,
        xn,
        quad_nt,
        dx,
        sampler,
        loss,
    }
}

/// Median one-worker times of one ETM micro-batch step's layers, each
/// forward and backward.
struct EtmBreakdown {
    docs: usize,
    vocab: usize,
    k: usize,
    nnz: usize,
    /// L1-normalizing the batch, the encoder MLP, the reparameterized θ
    /// and the KL term.
    encoder: Spread,
    /// `β = softmax(ρ·tᵀ / τ)` from the topic embeddings.
    decoder: Spread,
    /// The reconstruction term `Σ x ⊙ ln(θ·β)` (one fused tape op).
    recon: Spread,
    /// The whole `EtmBackbone::elbo`, forward and backward.
    step: Spread,
}

impl EtmBreakdown {
    /// What the step spends outside the measured layers (the final sums,
    /// tape bookkeeping).
    fn residual_ns(&self) -> i128 {
        let parts = self.encoder.median_ns + self.decoder.median_ns + self.recon.median_ns;
        self.step.median_ns as i128 - parts as i128
    }
}

/// Time one ETM step on a NYTimes-like micro-batch (the quick grid scale:
/// `micro_batch` 256, `V` = 2400, `K` = 40, hidden 128, ~63 distinct words
/// per document) and each of its layers, at one worker.
fn etm_breakdown(smoke: bool, samples: usize) -> EtmBreakdown {
    let (docs, vocab, k, draws) = if smoke {
        (16, 120, 4, 10)
    } else {
        (256, REG_V, REG_K, 64)
    };
    let config = TrainConfig {
        num_topics: k,
        hidden: 128,
        ..TrainConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    let emb = Tensor::randn(vocab, config.embed_dim, 1.0, &mut rng);
    let mut params = Params::new();
    let etm = EtmBackbone::new(&mut params, vocab, emb, &config, &mut rng);
    let x = csr_batch(docs, vocab, draws);
    let nnz = x.csr().map_or(0, |m| m.nnz());
    let x_rc = Arc::new(x.clone());
    // θ and β of a real forward pass, the reconstruction timing's inputs.
    let tape = Tape::new();
    let e = etm.elbo(&tape, &params, &x, &mut rng);
    let (theta, beta) = (e.theta.value(), e.beta.value());
    drop(tape);
    let mut ns: [Vec<u128>; 4] = Default::default();
    pool::with_threads(1, || {
        for round in 0..=samples {
            let times = [
                time_once(|| {
                    let tape = Tape::new();
                    let mut xn = x.clone();
                    xn.normalize_rows_l1();
                    let xn = tape.constant(xn);
                    let (theta, kl) = etm.encoder.encode(&tape, &params, xn, &mut rng);
                    black_box(tape.backward(theta.sum_all().add(kl)));
                }),
                time_once(|| {
                    let tape = Tape::new();
                    let beta = etm.decoder.beta(&tape, &params);
                    black_box(tape.backward(beta.sum_all()));
                }),
                time_once(|| {
                    let tape = Tape::new();
                    let (t, b) = (tape.leaf((*theta).clone()), tape.leaf((*beta).clone()));
                    let recon = t
                        .bow_log_likelihood(b, &x_rc, 1e-10)
                        .scale(-1.0 / docs as f32);
                    black_box(tape.backward(recon));
                }),
                time_once(|| {
                    let tape = Tape::new();
                    let e = etm.elbo(&tape, &params, &x, &mut rng);
                    black_box(tape.backward(e.loss));
                }),
            ];
            if round > 0 {
                for (v, t) in ns.iter_mut().zip(times) {
                    v.push(t);
                }
            }
        }
    });
    let [encoder, decoder, recon, step] = ns.map(spread_of);
    EtmBreakdown {
        docs,
        vocab,
        k,
        nnz,
        encoder,
        decoder,
        recon,
        step,
    }
}

/// Median times of the steps of one `ExperimentContext::build`, in the
/// order the build runs them, and of one whole build.
struct SetupBreakdown {
    scale: Scale,
    vocab: usize,
    dim: usize,
    /// Entries the training split's PPMI stores (both triangles).
    ppmi_nnz: usize,
    /// `(name, spread)` per step.
    steps: Vec<(&'static str, Spread)>,
    /// One whole `ExperimentContext::build`.
    total: Spread,
}

impl SetupBreakdown {
    /// What the build spends outside the timed steps: the eigensolver's
    /// Rayleigh sums, column sort and `sqrt|λ|` scaling, and freeing the
    /// set-up buffers.
    fn residual_ns(&self) -> i128 {
        let parts: u128 = self.steps.iter().map(|(_, s)| s.median_ns).sum();
        self.total.median_ns as i128 - parts as i128
    }
}

/// Names of [`SetupBreakdown::steps`], in build order.
const SETUP_STEPS: [&str; 9] = [
    "synth",
    "split",
    "cooc",
    "ppmi",
    "eig_products",
    "orthonormalize",
    "degrade",
    "npmi_train",
    "npmi_test",
];

/// Time the NYTimes-like `ExperimentContext::build` (quick scale; tiny
/// under `--smoke`) step by step, replaying its calls, and as one call,
/// on the default pool. The eigensolver's loop is replayed so that its
/// `ITERS + 1` CSR products and its Gram–Schmidt passes are timed apart;
/// the degradation runs on the replay's `V × dim` block, the shape the
/// build degrades. The first round is a warm-up.
fn setup_breakdown(smoke: bool, samples: usize) -> SetupBreakdown {
    let preset = DatasetPreset::NyTimesLike;
    let scale = if smoke { Scale::Tiny } else { Scale::Quick };
    // The embedding width `ExperimentContext::build` picks at each scale.
    let dim = if smoke { 32 } else { 64 };
    let noise = ct_exp::context::embedding_noise();
    let mut ns: Vec<Vec<u128>> = vec![Vec::new(); SETUP_STEPS.len() + 1];
    let (mut vocab, mut ppmi_nnz) = (0, 0);
    for round in 0..=samples {
        let mut t = [0u128; SETUP_STEPS.len() + 1];
        let mut rng = StdRng::seed_from_u64(1);
        let synth = timed(&mut t[0], || generate(&preset.spec(scale), &mut rng));
        let (train, test) = timed(&mut t[1], || {
            synth.corpus.split(preset.train_frac(), &mut rng)
        });
        let mut cooc = CoocAccumulator::new(train.vocab_size());
        timed(&mut t[2], || cooc.add_corpus(&train));
        let ppmi = timed(&mut t[3], || Tensor::from_csr(cooc.to_ppmi()));
        let mut x = Tensor::randn(train.vocab_size(), dim, 1.0, &mut rng);
        timed(&mut t[5], || orthonormalize_columns(&mut x));
        for _ in 0..ITERS {
            x = timed(&mut t[4], || ppmi.matmul(&x));
            timed(&mut t[5], || orthonormalize_columns(&mut x));
        }
        black_box(timed(&mut t[4], || ppmi.matmul(&x)));
        black_box(timed(&mut t[6], || degrade_embeddings(x, noise, &mut rng)));
        black_box(timed(&mut t[7], || cooc.to_npmi()));
        black_box(timed(&mut t[8], || NpmiMatrix::from_corpus(&test)));
        vocab = train.vocab_size();
        ppmi_nnz = ppmi.csr().map_or(0, |m| m.nnz());
        drop((ppmi, cooc, train, test));
        black_box(timed(&mut t[9], || {
            ExperimentContext::build_with_noise(preset, scale, 1, noise)
        }));
        if round > 0 {
            for (v, &x) in ns.iter_mut().zip(&t) {
                v.push(x);
            }
        }
    }
    let mut spreads: Vec<Spread> = ns.into_iter().map(spread_of).collect();
    let total = spreads.pop().expect("total");
    SetupBreakdown {
        scale,
        vocab,
        dim,
        ppmi_nnz,
        steps: SETUP_STEPS.into_iter().zip(spreads).collect(),
        total,
    }
}

/// One-epoch fixture: a 400-document, 600-word synthetic corpus (the
/// shape every committed `BENCH_train_epoch.json` was measured on); the
/// smoke preset keeps the same shape at a fraction of the cost.
struct EpochFixture {
    corpus: ct_corpus::BowCorpus,
    emb: Tensor,
    npmi: NpmiMatrix,
    config: TrainConfig,
}

fn epoch_fixture(smoke: bool) -> EpochFixture {
    let spec = if smoke {
        SynthSpec {
            vocab_size: 120,
            num_topics: 4,
            num_docs: 60,
            avg_doc_len: 20.0,
            ..Default::default()
        }
    } else {
        SynthSpec {
            vocab_size: 600,
            num_topics: 10,
            num_docs: 400,
            avg_doc_len: 40.0,
            ..Default::default()
        }
    };
    let mut rng = StdRng::seed_from_u64(1);
    let corpus = generate(&spec, &mut rng).corpus;
    let emb = train_embeddings(&corpus, if smoke { 16 } else { 32 }, &mut rng);
    let npmi = NpmiMatrix::from_corpus(&corpus);
    // micro_batch < batch_size so every batch fans out across the pool.
    let config = if smoke {
        TrainConfig {
            num_topics: 4,
            hidden: 32,
            epochs: 1,
            batch_size: 40,
            embed_dim: 16,
            ..TrainConfig::default()
        }
        .with_micro_batch(10)
    } else {
        TrainConfig {
            num_topics: 16,
            hidden: 64,
            epochs: 1,
            batch_size: 200,
            embed_dim: 32,
            ..TrainConfig::default()
        }
        .with_micro_batch(50)
    };
    EpochFixture {
        corpus,
        emb,
        npmi,
        config,
    }
}

struct SweepPoint {
    workers: usize,
    spread: Spread,
}

/// Time one epoch at each worker count and check the trained parameters
/// are bitwise identical across counts (the sharded driver's contract).
fn train_epoch_sweep(fix: &EpochFixture, samples: usize) -> (Vec<SweepPoint>, bool) {
    let mut points = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    let mut bitwise_equal = true;
    for &workers in &WORKER_SWEEP {
        pool::with_threads(workers, || {
            let spread = time_spread(samples, || {
                black_box(fit_contratopic(
                    &fix.corpus,
                    fix.emb.clone(),
                    &fix.npmi,
                    &fix.config,
                    &Default::default(),
                ));
            });
            let model = fit_contratopic(
                &fix.corpus,
                fix.emb.clone(),
                &fix.npmi,
                &fix.config,
                &Default::default(),
            );
            let bytes = params_to_bytes(&model.inner.params);
            match &reference {
                None => reference = Some(bytes),
                Some(r) => bitwise_equal &= *r == bytes,
            }
            points.push(SweepPoint { workers, spread });
        });
    }
    (points, bitwise_equal)
}

/// One-epoch ETM (the backbone alone, no regularizer) on the same fixture
/// at one worker: the denominator of the §V-E cost ratio.
fn etm_epoch(fix: &EpochFixture, samples: usize) -> Spread {
    pool::with_threads(1, || {
        time_spread(samples, || {
            black_box(fit_etm(&fix.corpus, fix.emb.clone(), &fix.config));
        })
    })
}

/// Optional extra traced run, outside the timing loop, so the telemetry of
/// the exact benchmark workload can be inspected. The sink (shared with
/// `fig4_sensitivity`) is gated on `CT_TRACE` and flushes on drop.
fn maybe_trace(fix: &EpochFixture) {
    let mut sink = ct_bench::trace_sink_from_env();
    if sink.enabled() {
        black_box(fit_contratopic_traced(
            &fix.corpus,
            fix.emb.clone(),
            &fix.npmi,
            &fix.config,
            &Default::default(),
            sink.as_mut(),
        ));
    }
}

/// The `setup` block of `BENCH_train_epoch.json`: every step's median,
/// the whole build's median and the residual, in milliseconds.
fn setup_json(setup: &SetupBreakdown) -> Json {
    let scale = match setup.scale {
        Scale::Tiny => "tiny",
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let mut members: Vec<(String, Json)> = vec![
        ("workers".into(), count(pool::configured_threads())),
        ("preset".into(), Json::Str("nytimes".into())),
        ("scale".into(), Json::Str(scale.into())),
        ("vocab".into(), count(setup.vocab)),
        ("dim".into(), count(setup.dim)),
        ("ppmi_nnz".into(), count(setup.ppmi_nnz)),
    ];
    let ms = |ns: i128| num3(ns as f64 / 1e6);
    for (name, spread) in &setup.steps {
        members.push((format!("{name}_ms"), ms(spread.median_ns as i128)));
    }
    members.push(("total_ms".into(), ms(setup.total.median_ns as i128)));
    members.push(("residual_ms".into(), ms(setup.residual_ns())));
    Json::Obj(members)
}

/// `BENCH_train_epoch.json`: the worker sweep, the regularizer and ETM
/// step breakdowns, the set-up breakdown, and the §V-E ContraTopic/ETM
/// ratio.
fn train_json(
    config: &TrainConfig,
    points: &[SweepPoint],
    etm: Spread,
    (reg, etm_step, setup): (&RegBreakdown, &EtmBreakdown, &SetupBreakdown),
    bitwise_equal: bool,
) -> Json {
    let ms = |ns: u128| num3(ns as f64 / 1e6);
    let sweep = points
        .iter()
        .map(|p| {
            obj(vec![
                ("workers", count(p.workers)),
                ("min_ms", ms(p.spread.min_ns)),
                ("median_ms", ms(p.spread.median_ns)),
                ("max_ms", ms(p.spread.max_ns)),
            ])
        })
        .collect();
    let regularizer = obj(vec![
        ("workers", count(1)),
        ("k", count(reg.k)),
        ("v", count(reg.v)),
        ("vocab", count(reg.vocab)),
        ("xn_ms", ms(reg.xn.median_ns)),
        ("quad_nt_ms", ms(reg.quad_nt.median_ns)),
        ("dx_ms", ms(reg.dx.median_ns)),
        ("sampler_ms", ms(reg.sampler.median_ns)),
        ("loss_ms", ms(reg.loss.median_ns)),
        ("residual_ms", num3(reg.residual_ns() as f64 / 1e6)),
    ]);
    let etm_block = obj(vec![
        ("workers", count(1)),
        ("docs", count(etm_step.docs)),
        ("vocab", count(etm_step.vocab)),
        ("k", count(etm_step.k)),
        ("nnz", count(etm_step.nnz)),
        ("encoder_ms", ms(etm_step.encoder.median_ns)),
        ("decoder_ms", ms(etm_step.decoder.median_ns)),
        ("recon_ms", ms(etm_step.recon.median_ns)),
        ("step_ms", ms(etm_step.step.median_ns)),
        ("residual_ms", num3(etm_step.residual_ns() as f64 / 1e6)),
    ]);
    // The ratio compares like with like: both models at one worker.
    let ct_one = points
        .iter()
        .find(|p| p.workers == 1)
        .map_or(0, |p| p.spread.median_ns);
    bench_doc(vec![
        ("model", Json::Str("ContraTopic".into())),
        ("epochs", count(1)),
        ("batch_size", count(config.batch_size)),
        ("micro_batch", count(config.micro_batch)),
        ("bitwise_equal_across_workers", Json::Bool(bitwise_equal)),
        ("sweep", Json::Arr(sweep)),
        ("regularizer", regularizer),
        ("etm", etm_block),
        ("setup", setup_json(setup)),
        ("etm_workers", count(1)),
        ("etm_median_ms", ms(etm.median_ns)),
        (
            "contratopic_etm_ratio",
            num3(ct_one as f64 / etm.median_ns.max(1) as f64),
        ),
    ])
}

fn main() -> std::io::Result<()> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sgemm_samples = if smoke { 3 } else { 30 };
    let reg_samples = if smoke { 1 } else { 5 };
    let epoch_samples = if smoke { 1 } else { 5 };

    println!("threads: {}", pool::configured_threads());
    println!("simd: {}", ct_tensor::simd::level());
    let cases = sgemm_cases(sgemm_samples, reg_samples);
    for c in &cases {
        println!(
            "sgemm {:<16} {:>4}x{:<4}x{:<4} best {:>10.3} ms",
            c.name,
            c.m,
            c.k,
            c.n,
            c.best_ns as f64 / 1e6
        );
    }

    let fix = epoch_fixture(smoke);
    let (points, bitwise_equal) = train_epoch_sweep(&fix, epoch_samples);
    let etm = etm_epoch(&fix, epoch_samples);
    let reg = regularizer_breakdown(smoke, reg_samples);
    let etm_step = etm_breakdown(smoke, epoch_samples);
    let setup = setup_breakdown(smoke, if smoke { 1 } else { 3 });
    for p in &points {
        let s = p.spread;
        println!(
            "train_one_epoch ContraTopic workers={} min {:>9.3} median {:>9.3} max {:>9.3} ms",
            p.workers,
            s.min_ns as f64 / 1e6,
            s.median_ns as f64 / 1e6,
            s.max_ns as f64 / 1e6
        );
    }
    println!(
        "train_one_epoch ETM workers=1 median {:>9.3} ms",
        etm.median_ns as f64 / 1e6
    );
    println!(
        "regularizer K={} v={} V={} workers=1 median: xn {:.3} quad_nt {:.3} dx {:.3} sampler {:.3} loss {:.3} residual {:.3} ms",
        reg.k,
        reg.v,
        reg.vocab,
        reg.xn.median_ns as f64 / 1e6,
        reg.quad_nt.median_ns as f64 / 1e6,
        reg.dx.median_ns as f64 / 1e6,
        reg.sampler.median_ns as f64 / 1e6,
        reg.loss.median_ns as f64 / 1e6,
        reg.residual_ns() as f64 / 1e6
    );
    println!(
        "etm step B={} V={} K={} nnz={} workers=1 median: encoder {:.3} decoder {:.3} recon {:.3} step {:.3} residual {:.3} ms",
        etm_step.docs,
        etm_step.vocab,
        etm_step.k,
        etm_step.nnz,
        etm_step.encoder.median_ns as f64 / 1e6,
        etm_step.decoder.median_ns as f64 / 1e6,
        etm_step.recon.median_ns as f64 / 1e6,
        etm_step.step.median_ns as f64 / 1e6,
        etm_step.residual_ns() as f64 / 1e6
    );
    let steps: Vec<String> = (setup.steps.iter())
        .map(|(name, s)| format!("{name} {:.3}", s.median_ns as f64 / 1e6))
        .collect();
    println!(
        "setup V={} dim={} ppmi_nnz={} median: {} total {:.3} residual {:.3} ms",
        setup.vocab,
        setup.dim,
        setup.ppmi_nnz,
        steps.join(" "),
        setup.total.median_ns as f64 / 1e6,
        setup.residual_ns() as f64 / 1e6
    );
    println!("bitwise_equal_across_workers: {bitwise_equal}");
    if !bitwise_equal {
        eprintln!("error: trained parameters differ across worker counts");
        std::process::exit(1);
    }
    maybe_trace(&fix);

    if smoke {
        println!("--smoke: skipping JSON artifacts");
        return Ok(());
    }
    std::fs::write(
        "BENCH_sgemm.json",
        sgemm_json(&cases).emit_members_per_line(),
    )?;
    println!("wrote BENCH_sgemm.json");
    let breakdowns = (&reg, &etm_step, &setup);
    let train = train_json(&fix.config, &points, etm, breakdowns, bitwise_equal);
    std::fs::write("BENCH_train_epoch.json", train.emit_members_per_line())?;
    println!("wrote BENCH_train_epoch.json");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_tensor::codec::json::parse;

    fn spread(ms: u128) -> Spread {
        Spread {
            min_ns: ms * 900_000,
            median_ns: ms * 1_000_000,
            max_ns: ms * 1_100_000,
        }
    }

    /// Both artifacts parse back, carry the provenance header, and keep
    /// the members `scripts/sgemm_gate.py` and readers of the train file
    /// rely on.
    #[test]
    fn artifacts_parse_and_carry_their_members() {
        let cases = [SgemmCase {
            name: "nn_square",
            m: 4,
            k: 5,
            n: 6,
            best_ns: 1_000,
        }];
        let sgemm = parse(&sgemm_json(&cases).emit_members_per_line()).expect("sgemm parses");
        for key in ["cpu_model", "simd", "git_rev", "threads"] {
            assert!(sgemm.get(key).is_some(), "BENCH_sgemm.json lacks {key}");
        }
        let ops = sgemm.get("ops").and_then(Json::as_arr).expect("ops array");
        assert_eq!(ops[0].get("name").and_then(Json::as_str), Some("nn_square"));
        assert_eq!(ops[0].get("gflops").and_then(Json::as_f64), Some(0.24));

        let points = [
            SweepPoint {
                workers: 1,
                spread: spread(20),
            },
            SweepPoint {
                workers: 2,
                spread: spread(15),
            },
        ];
        let reg = RegBreakdown {
            k: 40,
            v: 10,
            vocab: 2400,
            xn: spread(80),
            quad_nt: spread(18),
            dx: spread(15),
            sampler: spread(20),
            loss: spread(135),
        };
        let etm_step = EtmBreakdown {
            docs: 256,
            vocab: 2400,
            k: 40,
            nnz: 16_000,
            encoder: spread(5),
            decoder: spread(2),
            recon: spread(1),
            step: spread(10),
        };
        let setup = SetupBreakdown {
            scale: Scale::Quick,
            vocab: 2400,
            dim: 64,
            ppmi_nnz: 1_800_000,
            steps: SETUP_STEPS.iter().map(|&n| (n, spread(7))).collect(),
            total: spread(70),
        };
        let config = TrainConfig::default().with_micro_batch(50);
        let doc = train_json(&config, &points, spread(8), (&reg, &etm_step, &setup), true);
        let train = parse(&doc.emit_members_per_line()).expect("train parses");
        for key in [
            "cpu_model",
            "simd",
            "git_rev",
            "model",
            "epochs",
            "batch_size",
            "micro_batch",
            "bitwise_equal_across_workers",
            "etm_workers",
        ] {
            assert!(
                train.get(key).is_some(),
                "BENCH_train_epoch.json lacks {key}"
            );
        }
        let sweep = train.get("sweep").and_then(Json::as_arr).expect("sweep");
        assert_eq!(sweep[1].get("median_ms").and_then(Json::as_f64), Some(15.0));
        let residual = train.get("regularizer").and_then(|r| r.get("residual_ms"));
        assert_eq!(residual.and_then(Json::as_f64), Some(2.0));
        let recon = train.get("etm").and_then(|e| e.get("recon_ms"));
        assert_eq!(recon.and_then(Json::as_f64), Some(1.0));
        // The set-up block's steps and residual add up to its total.
        let block = train.get("setup").expect("setup block");
        let ms = |key: &str| {
            let v = block.get(key).and_then(Json::as_f64);
            v.unwrap_or_else(|| panic!("setup lacks {key}"))
        };
        let steps: f64 = SETUP_STEPS.iter().map(|n| ms(&format!("{n}_ms"))).sum();
        assert_eq!(steps, 63.0);
        assert_eq!(ms("residual_ms"), 7.0);
        assert!((steps + ms("residual_ms") - ms("total_ms")).abs() < 1e-9);
        assert_eq!(ms("vocab"), 2400.0);
        let ratio = train.get("contratopic_etm_ratio").and_then(Json::as_f64);
        assert_eq!(ratio, Some(2.5));
        assert_eq!(train.get("etm_median_ms").and_then(Json::as_f64), Some(8.0));
    }
}
