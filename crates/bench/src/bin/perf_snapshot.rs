//! Machine-readable performance snapshot of the training hot path.
//!
//! Writes two JSON files into the current directory:
//!
//! - `BENCH_sgemm.json` — best wall-time (and derived GFLOP/s) for the
//!   three SGEMM layouts at training shapes, the square baseline, the three
//!   products of the topic-wise regularizer at the NYTimes-like grid shape
//!   (`M = K·v = 400`, `V = 2400`) and ETM's topic-word gradient. A
//!   provenance header records the CPU model, the SIMD level the kernels
//!   selected and the git revision.
//! - `BENCH_train_epoch.json` — min/median/max wall-time of a one-epoch
//!   `fit_contratopic` run on the shared train-epoch fixture, swept over
//!   1/2/4 pool workers with the sharded data-parallel driver engaged
//!   (`micro_batch` < `batch_size`), plus the one-epoch ETM median on the
//!   same fixture and the ContraTopic/ETM ratio (the paper's §V-E cost of
//!   the regularizer). The sweep also asserts the trained parameters are
//!   bitwise identical across worker counts.
//!
//! `--smoke` runs the same code paths on a tiny preset with minimal sample
//! counts and writes nothing — a CI gate so the binary cannot rot.
//!
//! The JSON is assembled by hand (no serde in this workspace) and kept flat
//! so CI or a human can diff successive snapshots. SGEMM rows report the
//! *best* (minimum) time over the sample loop: on a shared box,
//! interference only ever slows a sample down, so min-time is the stable
//! estimator a ±10% regression gate can be built on, while medians would
//! flake with scheduler noise. The epoch sweep reports min, median and max
//! over five runs after one warm-up (which also spins up the worker
//! pool), so a difference between worker counts can be judged against the
//! spread of each. Note the speedup of the worker sweep is bounded by the
//! *physical* cores of the machine (the `cores` field), not by the worker
//! count.

use std::fmt::Write as _;
use std::time::Instant;

use contratopic::{fit_contratopic, fit_contratopic_traced};
use ct_corpus::{generate, train_embeddings, NpmiMatrix, SynthSpec};
use ct_models::{fit_etm, TrainConfig};
use ct_tensor::codec::json::json_str;
use ct_tensor::{params_to_bytes, pool, Tensor};
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

/// Wall-time spread over `samples` runs after one warm-up.
fn time_spread<F: FnMut()>(samples: usize, mut f: F) -> Spread {
    f(); // warm-up: allocator, caches, worker pool
    let mut out: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    out.sort_unstable();
    Spread {
        min_ns: out[0],
        median_ns: out[out.len() / 2],
        max_ns: out[out.len() - 1],
    }
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

/// A synthetic encoder input batch in CSR storage: 256 documents over a
/// 600-word vocabulary at ~40 distinct words each — the same density as
/// the train-epoch fixture, so the `csr_*` rows measure the storage
/// backend on a realistic batch rather than a best-case one.
fn csr_encoder_batch() -> Tensor {
    let mut state = 42u64;
    let mut step = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let rows: Vec<Vec<(u32, f32)>> = (0..256)
        .map(|_| {
            let mut ids: Vec<u32> = (0..40).map(|_| (step() % 600) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.into_iter()
                .map(|id| (id, 1.0 + (step() % 5) as f32))
                .collect()
        })
        .collect();
    Tensor::from_csr(ct_tensor::CsrMatrix::from_rows(256, 600, rows))
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
        // (G + Gᵀ)·T. Few samples: each is hundreds of MFLOP.
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

/// The CPU model string from `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// The revision of the source tree this binary was built from (`-dirty`
/// when it has uncommitted changes), or `"unknown"` outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR")])
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |r| r.trim().to_string())
}

/// The provenance fields every artifact starts with.
fn provenance_json() -> String {
    format!(
        "  \"cpu_model\": {},\n  \"simd\": {},\n  \"git_rev\": {},\n",
        json_str(&cpu_model()),
        json_str(ct_tensor::simd::level()),
        json_str(&git_rev())
    )
}

fn write_sgemm_json(cases: &[SgemmCase]) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&provenance_json());
    let _ = write!(
        out,
        "  \"threads\": {},\n  \"ops\": [\n",
        pool::configured_threads()
    );
    for (i, c) in cases.iter().enumerate() {
        let flops = 2.0 * (c.m * c.k * c.n) as f64;
        let gflops = flops / c.best_ns.max(1) as f64; // ns => GFLOP/s
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"best_ns\": {}, \"gflops\": {:.3}}}{}",
            c.name,
            c.m,
            c.k,
            c.n,
            c.best_ns,
            gflops,
            if i + 1 < cases.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_sgemm.json", out)
}

/// One-epoch fixture: the full-size preset mirrors the `train_epoch`
/// criterion fixture so numbers stay comparable; the smoke preset keeps the
/// same shape at a fraction of the cost.
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

fn write_train_json(
    fix: &EpochFixture,
    points: &[SweepPoint],
    etm: Spread,
    bitwise_equal: bool,
) -> std::io::Result<()> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ms = |ns: u128| ns as f64 / 1e6;
    let mut out = String::from("{\n");
    out.push_str(&provenance_json());
    let _ = write!(
        out,
        "  \"model\": \"ContraTopic\",\n  \"epochs\": 1,\n  \"cores\": {},\n  \"batch_size\": {},\n  \"micro_batch\": {},\n  \"bitwise_equal_across_workers\": {},\n  \"sweep\": [\n",
        cores, fix.config.batch_size, fix.config.micro_batch, bitwise_equal
    );
    for (i, p) in points.iter().enumerate() {
        let s = p.spread;
        let _ = writeln!(
            out,
            "    {{\"workers\": {}, \"min_ms\": {:.3}, \"median_ms\": {:.3}, \"max_ms\": {:.3}}}{}",
            p.workers,
            ms(s.min_ns),
            ms(s.median_ns),
            ms(s.max_ns),
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    // The ratio compares like with like: both models at one worker.
    let ct_one = points
        .iter()
        .find(|p| p.workers == 1)
        .map_or(0, |p| p.spread.median_ns);
    let _ = write!(
        out,
        "  \"etm_workers\": 1,\n  \"etm_median_ms\": {:.3},\n  \"contratopic_etm_ratio\": {:.3}\n}}\n",
        ms(etm.median_ns),
        ct_one as f64 / etm.median_ns.max(1) as f64
    );
    std::fs::write("BENCH_train_epoch.json", out)
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

    // Observability gate (the `csr_matmuls` counter mirrors the
    // `masks_built` trace hook): the sweep below must actually select the
    // CSR fast path for its sparse synthetic corpus — a silent fallback
    // to dense batches would leave the numbers measuring the wrong code.
    let csr_before = ct_tensor::csr_matmuls();
    let fix = epoch_fixture(smoke);
    let (points, bitwise_equal) = train_epoch_sweep(&fix, epoch_samples);
    let etm = etm_epoch(&fix, epoch_samples);
    let csr_delta = ct_tensor::csr_matmuls() - csr_before;
    println!("csr_matmuls during epoch sweep: {csr_delta}");
    if csr_delta == 0 {
        eprintln!("error: the CSR fast path was never selected during training");
        std::process::exit(1);
    }
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
    write_sgemm_json(&cases)?;
    println!("wrote BENCH_sgemm.json");
    write_train_json(&fix, &points, etm, bitwise_equal)?;
    println!("wrote BENCH_train_epoch.json");
    Ok(())
}
