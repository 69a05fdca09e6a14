//! The training workloads on the NYTimes-like quick corpus with the
//! experiment grid's own configuration, no network and no disk:
//! `train_nyt` fits ContraTopic (the ETM backbone plus the topic-wise
//! contrastive regularizer); `train_nyt_etm` fits the ETM backbone alone,
//! the paper's §V-E baseline, so work on the regularizer moves the first
//! and must leave the second unchanged.

use std::sync::Arc;
use std::time::Instant;

use contratopic::{
    fit_contratopic, fit_contratopic_traced, ContrastiveRegularizer, SimilarityKernel,
};
use ct_corpus::{
    degrade_embeddings, generate, train_embeddings, DatasetPreset, NpmiMatrix, Scale, SparseDoc,
};
use ct_eval::{TopicScores, K_TC};
use ct_exp::ExperimentContext;
use ct_models::{
    fit_backbone_traced, fit_etm, EtmBackbone, Fitted, TopicModel, TraceEvent, TraceSink,
    TrainConfig,
};
use ct_serve::ModelSnapshot;
use ct_tensor::{arena, csr_matmuls, params_to_bytes, pool, Adam, Optimizer, Params, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen;
use crate::report::{Phase, Report};
use crate::stats::{median, percentile, sorted, windowed_p99};
use crate::sys;
use crate::timing::{repeat_setup, time_median_us};

/// Documents per held-out inference request.
const LATENCY_BATCH: usize = 32;
/// Held-out inference requests timed per second of the run: about a
/// third of the run at ~0.3 ms per request on a 2-vCPU host. A shared
/// host can flip between a fast and a slow state every second or so (the
/// same request costs ~0.2 or ~0.33 ms of CPU), so the samples must span
/// many such episodes for their percentiles to hold still between runs.
const LATENCY_PER_SECOND: f64 = 1000.0;
/// Samples per window of the windowed p99.
const P99_WINDOW: usize = 1100;

/// Which model a training workload fits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    ContraTopic,
    Etm,
}

impl Model {
    /// Epochs for a run of `seconds`: fixed by the arguments alone, so
    /// the trained model (and its coherence) depends only on the seed.
    /// About 0.55 of the run trains, on one thread of a 2-vCPU host,
    /// where a ContraTopic epoch takes about 3 s and an ETM epoch about
    /// 0.3 s; held-out inference takes most of the rest.
    fn epochs_for(self, seconds: f64) -> usize {
        let per_second = match self {
            Model::ContraTopic => 0.18,
            Model::Etm => 1.8,
        };
        ((seconds * per_second).round() as usize).max(2)
    }

    /// Fit on the context's training split, with `trace` seeing the
    /// training loop's events.
    fn fit(
        self,
        ctx: &ExperimentContext,
        base: &TrainConfig,
        trace: &mut dyn TraceSink,
    ) -> Fitted<EtmBackbone> {
        match self {
            Model::ContraTopic => {
                let config = ctx.contratopic_config();
                let embeddings = ctx.embeddings.clone();
                fit_contratopic_traced(
                    &ctx.train,
                    embeddings,
                    &ctx.npmi_train,
                    base,
                    &config,
                    trace,
                )
                .inner
            }
            Model::Etm => {
                // As `fit_etm` does, with the trace routed through.
                let mut params = Params::new();
                let mut rng = StdRng::seed_from_u64(base.seed);
                let v = ctx.train.vocab_size();
                let backbone =
                    EtmBackbone::new(&mut params, v, ctx.embeddings.clone(), base, &mut rng);
                fit_backbone_traced(backbone, params, &ctx.train, base, trace)
            }
        }
    }
}

fn context(seed: u64) -> ExperimentContext {
    ExperimentContext::build(DatasetPreset::NyTimesLike, Scale::Quick, seed)
}

/// Service time of `samples` held-out inference requests,
/// `LATENCY_BATCH` documents each, through the serving snapshot a user
/// would export from the trained model. Requests run one at a time on one
/// thread and are timed on that thread's CPU clock, so the time it spends
/// descheduled — by the guest scheduler or by the hypervisor running
/// another tenant — is not counted, and no second request contends for
/// the core's caches: the figure tracks the program, not the host's
/// neighbours. Returns the times in request order.
fn held_out_latency_ms(
    model: &Fitted<EtmBackbone>,
    ctx: &ExperimentContext,
    samples: usize,
) -> Vec<f64> {
    let snapshot =
        ModelSnapshot::from_parts(&model.backbone, &model.params, ctx.test.vocab.clone(), 10)
            .expect("snapshot of the trained model");
    let docs: Vec<&SparseDoc> = ctx.test.docs.iter().filter(|d| !d.is_empty()).collect();
    let requests: Vec<&[&SparseDoc]> = docs.chunks_exact(LATENCY_BATCH).collect();
    pool::with_threads(1, || {
        (0..samples)
            .map(|i| {
                let batch = requests[i % requests.len()];
                let t0 = sys::thread_cpu_s();
                let x = snapshot.dense_batch(batch);
                std::hint::black_box(snapshot.infer_theta(&x));
                (sys::thread_cpu_s() - t0) * 1e3
            })
            .collect()
    })
}

/// The untraced training workload.
pub fn run(model: Model, seed: u64, seconds: f64, report: &mut Report) {
    let (ctx, setup_s) = repeat_setup(|| context(seed), drop);
    let epochs = model.epochs_for(seconds);
    let base = TrainConfig {
        epochs,
        ..ctx.train_config(gen::MODEL_SEED)
    };

    // Training runs on one thread. With the pool's fork-join spread over
    // both vCPUs, every slice the hypervisor takes from either one stalls
    // the step, which doubles the share of wall time lost to other
    // tenants; the parameters are bit-identical at any pool width.
    let cpu0 = sys::process_cpu_s();
    let mut clock = EpochClock::default();
    let fitted = pool::with_threads(1, || model.fit(&ctx, &base, &mut clock));
    let cpu = sys::process_cpu_s() - cpu0;
    let docs = (epochs * ctx.train.num_docs()) as f64;
    let train_s: f64 = clock.epoch_s.iter().sum();

    let mut phase = Phase::new("train");
    let batches_per_epoch = ctx.train.num_docs().div_ceil(base.batch_size) as u64;
    phase.attempted = batches_per_epoch * epochs as u64;
    let stats = &fitted.stats;
    phase.typed = stats.skipped_batches as u64;
    phase.ok = phase.attempted - phase.typed.min(phase.attempted);
    report.check(
        "train.no_skipped_or_diverged_batches",
        stats.skipped_batches == 0 && stats.check_diverged().is_ok(),
        format!(
            "{} skipped, outcome {:?}",
            stats.skipped_batches, stats.outcome
        ),
    );
    let samples = ((seconds * LATENCY_PER_SECOND) as usize).max(P99_WINDOW);
    let latency = held_out_latency_ms(&fitted, &ctx, samples);
    let mut infer = Phase::new("held_out_inference");
    infer.attempted = latency.len() as u64;
    infer.ok = infer.attempted;
    report.phase(phase);
    report.phase(infer);
    report.info(
        "samples",
        format!(
            "{{\"setups\": {}, \"epochs\": {epochs}, \"docs_per_epoch\": {}, \"latency\": {}}}",
            setup_s.len(),
            ctx.train.num_docs(),
            latency.len()
        ),
    );

    report.metric("setup_s", median(&setup_s).expect("set-up samples"), "s");
    report.metric("throughput", docs / train_s, "ops/s");
    let p99 = windowed_p99(&latency, P99_WINDOW);
    let p50 = percentile(&sorted(latency), 50.0);
    report.metric("p50_ms", p50.unwrap_or(f64::NAN), "ms");
    report.metric("p99_ms", p99.unwrap_or(f64::NAN), "ms");
    report.metric("cpu_ms_per_op", cpu * 1e3 / docs, "ms");
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
    let coherence = TopicScores::compute(&fitted.beta(), &ctx.npmi_test, K_TC).coherence_at(0.5);
    report.metric("coherence_npmi", coherence, "npmi");
}

/// The training loop's own per-epoch wall clock (`EpochEnd`), and
/// nothing else. Throughput is taken over the sum of all epochs, not the
/// median one: epochs land in the host's fast and slow states in shares
/// that differ from run to run, and a mean moves smoothly with the share
/// where a median jumps from one state's speed to the other's.
#[derive(Default)]
struct EpochClock {
    epoch_s: Vec<f64>,
}

impl TraceSink for EpochClock {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::EpochEnd { wall_ns, .. } = event {
            self.epoch_s.push(*wall_ns as f64 / 1e9);
        }
    }
}

/// Collects what the training loop traces per batch.
#[derive(Default)]
struct TrainLog {
    forward_ms: Vec<f64>,
    backward_ms: Vec<f64>,
    step_ms: Vec<f64>,
    skipped: usize,
    masks_built: u64,
}

impl TraceSink for TrainLog {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::BatchEnd {
                forward_ns,
                backward_ns,
                step_ns,
                ..
            } => {
                self.forward_ms.push(*forward_ns as f64 / 1e6);
                self.backward_ms.push(*backward_ns as f64 / 1e6);
                self.step_ms.push(*step_ns as f64 / 1e6);
            }
            TraceEvent::BatchSkipped { .. } => self.skipped += 1,
            TraceEvent::Counter {
                name: "masks_built",
                value,
            } => self.masks_built = *value,
            _ => {}
        }
    }
}

/// GFLOP/s of `f`, which performs `flops` floating-point operations:
/// the best of `reps` timed calls after one warm-up (interference only
/// ever adds time).
fn gflops(flops: f64, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// One-epoch training rates (docs/s) with the trace hooks `(off, on)`.
pub struct EpochRates {
    pub contratopic: (f64, f64),
    pub etm: (f64, f64),
}

/// Per-layer numbers of the training path, for the traced run.
pub fn probe(seed: u64, seconds: f64, report: &mut Report) -> EpochRates {
    // The context, built step by step as `ExperimentContext::build` does.
    let preset = DatasetPreset::NyTimesLike;
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let synth = generate(&preset.spec(Scale::Quick), &mut rng);
    report.metric("corpus.synth.ms", t0.elapsed().as_secs_f64() * 1e3, "ms");
    let (train, test) = synth.corpus.split(preset.train_frac(), &mut rng);
    let t0 = Instant::now();
    let embeddings = train_embeddings(&train, 64, &mut rng);
    report.metric("corpus.embed.ms", t0.elapsed().as_secs_f64() * 1e3, "ms");
    let embeddings = degrade_embeddings(embeddings, ct_exp::context::embedding_noise(), &mut rng);
    let t0 = Instant::now();
    let npmi_train = NpmiMatrix::from_corpus(&train);
    report.metric(
        "corpus.npmi.from_corpus_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let ctx = ExperimentContext {
        preset,
        scale: Scale::Quick,
        npmi_test: Arc::new(NpmiMatrix::from_corpus(&test)),
        npmi_train: Arc::new(npmi_train),
        train,
        test,
        embeddings,
    };
    let one_epoch = TrainConfig {
        epochs: 1,
        ..ctx.train_config(gen::MODEL_SEED)
    };
    let config = ctx.contratopic_config();
    let docs = ctx.train.num_docs() as f64;
    let mut phase = Phase::new("probe_train_epochs");

    // One epoch traced: per-batch spans, counters, and the kernels'
    // call counts over exactly that epoch.
    let mut log = TrainLog::default();
    let csr0 = csr_matmuls();
    let (reuse0, miss0) = arena::counters();
    let t0 = Instant::now();
    let traced = fit_contratopic_traced(
        &ctx.train,
        ctx.embeddings.clone(),
        &ctx.npmi_train,
        &one_epoch,
        &config,
        &mut log,
    );
    let traced_s = t0.elapsed().as_secs_f64();
    let (reuse1, miss1) = arena::counters();
    report.metric("tensor.csr.matmuls", (csr_matmuls() - csr0) as f64, "count");
    report.metric("tensor.arena.reuse", (reuse1 - reuse0) as f64, "count");
    report.metric("tensor.arena.miss", (miss1 - miss0) as f64, "count");
    report.metric(
        "models.common.forward_ms",
        median(&log.forward_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "models.common.backward_ms",
        median(&log.backward_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "models.common.step_ms",
        median(&log.step_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "core.regularizer.masks_built",
        log.masks_built as f64,
        "count",
    );
    phase.attempted += log.forward_ms.len() as u64 + log.skipped as u64;
    phase.typed += log.skipped as u64;
    drop(traced);
    let mut etm_log = TrainLog::default();
    let t0 = Instant::now();
    let etm = Model::Etm.fit(&ctx, &one_epoch, &mut etm_log);
    let etm_traced_s = t0.elapsed().as_secs_f64();
    phase.attempted += etm_log.forward_ms.len() as u64 + etm_log.skipped as u64;
    phase.typed += etm_log.skipped as u64;
    drop(etm);

    // Untraced epochs, repeated over the budget: the rate without hooks,
    // the §V-E ContraTopic/ETM epoch ratio, and determinism across pool
    // widths (one epoch's parameters at 1 thread and at nproc threads).
    let fit = |threads: usize| {
        pool::with_threads(threads, || {
            let t0 = Instant::now();
            let m = fit_contratopic(
                &ctx.train,
                ctx.embeddings.clone(),
                &ctx.npmi_train,
                &one_epoch,
                &config,
            );
            (m, t0.elapsed().as_secs_f64())
        })
    };
    let nproc = sys::nproc();
    let (wide, mut wide_s) = fit(nproc);
    let rounds = ((seconds / 8.0).round() as usize).max(1);
    let mut ct_s = vec![wide_s];
    let mut etm_s = Vec::new();
    for r in 0..rounds {
        // ETM epochs are ten times shorter: take several per round.
        for _ in 0..5 {
            let t0 = Instant::now();
            let etm = fit_etm(&ctx.train, ctx.embeddings.clone(), &one_epoch);
            etm_s.push(t0.elapsed().as_secs_f64());
            drop(etm);
        }
        if r + 1 < rounds {
            (_, wide_s) = fit(nproc);
            ct_s.push(wide_s);
        }
    }
    let (narrow, _) = fit(1);
    let same = params_to_bytes(&wide.inner.params) == params_to_bytes(&narrow.inner.params);
    report.check(
        "train.epoch_bytes_equal_across_pool_threads",
        same,
        format!("1 vs {nproc} threads"),
    );
    for m in [&wide, &narrow] {
        phase.attempted += one_epoch_batches(&ctx, &one_epoch);
        phase.typed += m.inner.stats.skipped_batches as u64;
    }
    let ct_median = median(&ct_s).expect("epoch samples");
    let etm_median = median(&etm_s).expect("epoch samples");
    report.metric(
        "core.regularizer.epoch_ratio",
        ct_median / etm_median,
        "ratio",
    );
    report.info(
        "train_probe_epochs",
        format!(
            "{{\"contratopic\": {}, \"etm\": {}}}",
            ct_s.len() + 2,
            etm_s.len()
        ),
    );

    // The regularizer alone at the workload's K x V: loss + backward.
    let k = one_epoch.num_topics;
    let v = ctx.train.vocab_size();
    let reg = ContrastiveRegularizer::new(
        SimilarityKernel::npmi(&ctx.npmi_train),
        config.sampler,
        config.variant,
    );
    let mut logits = Params::new();
    let id = logits.add("logits", Tensor::randn(k, v, 1.0, &mut gen::rng(seed, 30)));
    let mut reg_rng = gen::rng(seed, 31);
    let loss_us = time_median_us(1, 12, |_| {
        let tape = Tape::new();
        let beta = tape.param(&logits, id).softmax_rows(1.0);
        let loss = reg.loss(&tape, beta, &mut reg_rng);
        std::hint::black_box(tape.backward(loss));
    });
    report.metric("core.regularizer.loss_ms", loss_us / 1e3, "ms");

    // Kernels at the training shapes: the encoder's sparse first layer
    // over real documents, and the dense products of one micro-batch.
    let mb = one_epoch.micro_batch.min(ctx.train.num_docs());
    let h = one_epoch.hidden;
    let e = ctx.embeddings.cols();
    let idx: Vec<usize> = (0..mb).collect();
    let docs_ref: Vec<&SparseDoc> = idx.iter().map(|&i| &ctx.train.docs[i]).collect();
    let nnz = docs_ref.iter().map(|d| d.ids().len()).sum::<usize>() as f64;
    let xs = ct_corpus::csr_batch_from_docs(&docs_ref, v);
    let mut krng = gen::rng(seed, 32);
    let w1 = Tensor::randn(v, h, 0.05, &mut krng);
    report.metric(
        "tensor.csr.gflops",
        gflops(2.0 * nnz * h as f64, 20, || {
            std::hint::black_box(xs.matmul(&w1));
        }),
        "GFLOP/s",
    );
    let act = Tensor::randn(mb, h, 1.0, &mut krng);
    let w2 = Tensor::randn(h, h, 0.05, &mut krng);
    let theta = Tensor::randn(mb, k, 1.0, &mut krng);
    let beta = Tensor::randn(k, v, 1.0, &mut krng);
    let alpha = Tensor::randn(k, e, 1.0, &mut krng);
    let rho = Tensor::randn(v, e, 1.0, &mut krng);
    let flops = 2.0 * (mb * h * h + mb * k * v + k * e * v + h * mb * h) as f64;
    report.metric(
        "tensor.sgemm.gflops",
        gflops(flops, 10, || {
            std::hint::black_box(act.matmul(&w2)); // hidden layer
            std::hint::black_box(theta.matmul(&beta)); // reconstruction
            std::hint::black_box(alpha.matmul_nt(&rho)); // topic-word logits
            std::hint::black_box(act.matmul_tn(&act)); // weight gradient
        }),
        "GFLOP/s",
    );

    // Adam over the trained model's own parameter shapes.
    let mut params = wide.inner.params;
    let mut adam = Adam::new(one_epoch.learning_rate);
    let adam_us = time_median_us(1, 40, |_| adam.step(&mut params));
    report.metric("tensor.optim.adam_us", adam_us, "us");

    phase.ok = phase.attempted - phase.typed.min(phase.attempted);
    report.phase(phase);
    EpochRates {
        contratopic: (docs / ct_median, docs / traced_s),
        etm: (docs / etm_median, docs / etm_traced_s),
    }
}

fn one_epoch_batches(ctx: &ExperimentContext, config: &TrainConfig) -> u64 {
    ctx.train.num_docs().div_ceil(config.batch_size) as u64
}
