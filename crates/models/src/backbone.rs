//! The backbone abstraction: every VAE-style NTM in this workspace exposes
//! a per-batch loss plus a differentiable `beta` handle, so ContraTopic's
//! topic-wise contrastive regularizer can be attached to any of them
//! (the paper's §V-I substitutes ETM → WLDA → WeTe).

use std::sync::Mutex;
use std::time::Instant;

use ct_corpus::{BatchIter, BowCorpus};
use ct_tensor::{pool, Adam, EmaUpdate, Optimizer, ParamId, Params, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    infer_theta_blocked, DivergencePolicy, TopicModel, TrainConfig, TrainOutcome, TrainStats,
};
use crate::encoder::Encoder;
use crate::trace::{ConsoleSink, LossComponents, NoopSink, TraceEvent, TraceSink};

/// Output of one backbone forward pass.
pub struct BackboneOut<'t> {
    /// The backbone's own training loss (ELBO / OT / WAE objective).
    pub loss: Var<'t>,
    /// Differentiable topic-word distribution `(K, V)` for regularizers.
    pub beta: Var<'t>,
    /// The KL term of `loss`, for backbones whose objective has one
    /// (telemetry only — `loss` already includes it).
    pub kl: Option<Var<'t>>,
}

impl<'t> BackboneOut<'t> {
    pub fn new(loss: Var<'t>, beta: Var<'t>) -> Self {
        Self {
            loss,
            beta,
            kl: None,
        }
    }

    pub fn with_kl(mut self, kl: Var<'t>) -> Self {
        self.kl = Some(kl);
        self
    }

    /// Telemetry breakdown of this output, with an optional weighted
    /// regularizer contribution added on top by the caller.
    pub fn components(&self, regularizer: Option<f32>) -> LossComponents {
        LossComponents {
            backbone: self.loss.scalar_value(),
            kl: self.kl.map(|k| k.scalar_value()),
            regularizer,
        }
    }
}

/// A VAE-style neural topic model viewed as a pluggable backbone.
///
/// `Sync` is a supertrait because the data-parallel training driver runs
/// `batch_loss` for different micro-batches concurrently on the worker
/// pool. A backbone therefore holds no mutable state: running statistics
/// (batch-norm means and variances, RL reward baselines) are frozen
/// [`Params`] entries, and a training forward records their updates on its
/// tape ([`Tape::record_ema`]) for the driver to apply in a fixed order.
pub trait Backbone: Sync {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Build the loss for one batch `x` (raw counts) of documents
    /// `indices`. The training driver passes CSR-backed batches (see
    /// [`BowCorpus::csr_batch`]); an objective that needs dense values
    /// calls [`Tensor::to_dense`] on what it needs.
    fn batch_loss<'t>(
        &self,
        tape: &'t Tape,
        params: &Params,
        x: &Tensor,
        indices: &[usize],
        rng: &mut StdRng,
    ) -> BackboneOut<'t>;

    /// Differentiable topic-word distribution `(K, V)` on `tape` — the
    /// same quantity `batch_loss` exposes as [`BackboneOut::beta`], but
    /// without running a document forward pass. Batch-level regularizers
    /// (ContraTopic's contrastive term is a function of `beta` alone) are
    /// built from this handle on their own tape under data-parallel
    /// sharding, so they are computed once per mini-batch rather than
    /// once per micro-batch.
    fn beta_var<'t>(&self, tape: &'t Tape, params: &Params) -> Var<'t>;

    /// The amortized encoder. Eval-mode θ is its exported weights'
    /// tape-free forward ([`Encoder::export_weights`],
    /// [`crate::EncoderWeights::infer_theta`]), the one eval path that
    /// offline evaluation and serving share.
    fn encoder(&self) -> &Encoder;

    /// Concrete topic-word distribution.
    fn beta_tensor(&self, params: &Params) -> Tensor;

    fn num_topics(&self) -> usize;
}

/// A fitted backbone: the backbone plus its trained parameters.
///
/// This is the deployable artifact of a training run. It can be persisted
/// with [`Fitted::save`] / restored with [`Fitted::restore`] (or packed
/// into an on-disk bundle via [`crate::bundle::ModelBundle`]), evaluated
/// through the [`TopicModel`] view, and — for serving — its encoder can be
/// exported into an immutable, thread-safe snapshot (see
/// [`crate::encoder::Encoder::export_weights`] and the `ct-serve` crate).
pub struct Fitted<B: Backbone> {
    /// The model architecture (layer handles, hyper-parameters).
    pub backbone: B,
    /// The trained parameter registry the backbone's handles point into.
    pub params: Params,
    /// Telemetry of the training run that produced these parameters.
    pub stats: TrainStats,
}

impl<B: Backbone> Fitted<B> {
    pub fn new(backbone: B, params: Params, stats: TrainStats) -> Self {
        Self {
            backbone,
            params,
            stats,
        }
    }

    /// Write the trained parameters as a checkpoint (see
    /// `ct_tensor::checkpoint` for the format).
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.params.save(w)
    }

    /// Restore trained parameters into this model by name. The model must
    /// have been built with the same configuration (same layer shapes).
    pub fn restore<R: std::io::Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        self.params.load_named(r)
    }
}

impl<B: Backbone> TopicModel for Fitted<B> {
    fn name(&self) -> &'static str {
        self.backbone.name()
    }

    fn beta(&self) -> Tensor {
        self.backbone.beta_tensor(&self.params)
    }

    fn theta(&self, corpus: &BowCorpus) -> Tensor {
        infer_theta_blocked(
            corpus,
            &self.backbone.encoder().export_weights(&self.params),
        )
    }

    fn train_stats(&self) -> Option<&TrainStats> {
        Some(&self.stats)
    }

    fn num_topics(&self) -> usize {
        self.backbone.num_topics()
    }
}

/// Train a backbone on `corpus` with its own objective (no regularizer).
pub fn fit_backbone<B: Backbone>(
    backbone: B,
    params: Params,
    corpus: &BowCorpus,
    config: &TrainConfig,
) -> Fitted<B> {
    fit_backbone_traced(backbone, params, corpus, config, &mut NoopSink)
}

/// [`fit_backbone`] with training telemetry routed to `trace`.
pub fn fit_backbone_traced<B: Backbone>(
    backbone: B,
    mut params: Params,
    corpus: &BowCorpus,
    config: &TrainConfig,
    trace: &mut dyn TraceSink,
) -> Fitted<B> {
    let stats = train_backbone(&backbone, &mut params, corpus, config, None, trace);
    Fitted::new(backbone, params, stats)
}

/// A batch-level regularizer: builds a scalar penalty from the
/// differentiable `beta` on the given tape, drawing any randomness from
/// the driver RNG.
pub(crate) type RegClosure<'r> =
    &'r mut dyn for<'t> FnMut(&'t Tape, Var<'t>, &mut StdRng) -> Var<'t>;

/// What one executed batch reports back to the epoch loop. The batch step
/// has already run forward and backward and accumulated (pre-clip)
/// gradients into the parameter registry; the loop clips, steps the
/// optimizer and records telemetry.
struct BatchOutcome {
    loss: f32,
    components: LossComponents,
    /// Forward wall time. On the sharded path this covers the whole
    /// micro-batch fan-out (whose per-micro forward and backward are
    /// fused), on the single-tape path just the forward pass.
    forward_ns: u64,
    /// Backward wall time. On the sharded path this is the fixed-order
    /// gradient reduction (plus the batch-level regularizer).
    backward_ns: u64,
    /// Number of micro-batches the batch was split into (1 on the
    /// single-tape path).
    shards: usize,
}

/// One micro-batch's contribution, produced on a pool worker and reduced
/// by the driver in micro-batch order.
struct MicroOut {
    loss: f32,
    kl: Option<f32>,
    grads: Vec<(ParamId, Tensor)>,
}

/// What a pool worker hands back for one micro-batch: the running-statistic
/// updates its forward recorded, and its contribution or non-finite loss.
type MicroSlot = (Vec<EmaUpdate>, Result<MicroOut, f32>);

fn now_if(enabled: bool) -> Option<Instant> {
    enabled.then(Instant::now)
}

fn ns_since(t0: Option<Instant>) -> u64 {
    t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
}

/// Running sums for per-epoch component means.
#[derive(Default)]
struct ComponentAccum {
    backbone: f64,
    kl: Option<f64>,
    regularizer: Option<f64>,
    grad_norm: f64,
}

impl ComponentAccum {
    fn add(&mut self, c: &LossComponents, grad_norm: f32) {
        self.backbone += c.backbone as f64;
        if let Some(kl) = c.kl {
            *self.kl.get_or_insert(0.0) += kl as f64;
        }
        if let Some(reg) = c.regularizer {
            *self.regularizer.get_or_insert(0.0) += reg as f64;
        }
        self.grad_norm += grad_norm as f64;
    }

    fn mean(&self, batches: usize) -> (LossComponents, f32) {
        let n = batches.max(1) as f64;
        (
            LossComponents {
                backbone: (self.backbone / n) as f32,
                kl: self.kl.map(|v| (v / n) as f32),
                regularizer: self.regularizer.map(|v| (v / n) as f32),
            },
            (self.grad_norm / n) as f32,
        )
    }
}

/// The training driver: trains `backbone`'s parameters in place on
/// `corpus` with its own objective plus, when `reg` is `Some((lambda,
/// reg))`, the weighted batch-level regularizer `lambda * reg(beta)` (the
/// hook ContraTopic uses), and returns the run's stats.
///
/// Shuffled batching, gradient clipping, the Adam step, the
/// [`TrainConfig::divergence`] policy and every trace event live here.
/// With a disabled sink (the [`NoopSink`] default) no events are built and
/// no clocks are read.
///
/// Every mini-batch is split into fixed contiguous micro-batches of
/// [`TrainConfig::micro_batch`] documents. Each micro-batch draws a seed
/// from the driver RNG (in micro order, before dispatch), then runs
/// forward + backward on a private tape — single-threaded, so its math has
/// a fixed reduction order — on whichever pool worker picks it up. The
/// driver then sums the per-micro gradients weighted by document share, in
/// micro-batch order, and applies the running-statistic updates each
/// micro recorded on its tape ([`Tape::record_ema`]) in the same order.
/// Nothing about the gradient math or the statistics depends on the
/// worker count or schedule, so trained parameters are bitwise identical
/// for any `CT_NUM_THREADS`.
///
/// A batch that fits inside one micro-batch takes a legacy single-tape
/// path instead, which reproduces the historical driver bit-for-bit
/// (same op order, same RNG stream, regularizer on the same tape). One
/// tape is reused across all such batches: [`Tape::reset`] returns every
/// op-output buffer to the thread-local arena, so steady-state training
/// allocates almost nothing.
pub fn train_backbone<B: Backbone>(
    backbone: &B,
    params: &mut Params,
    corpus: &BowCorpus,
    config: &TrainConfig,
    mut reg: Option<(f32, RegClosure<'_>)>,
    trace: &mut dyn TraceSink,
) -> TrainStats {
    let micro = config.micro_batch.max(1);
    let tape = Tape::new();
    let tracing = trace.enabled();
    // Verbose progress goes through a console sink on stderr, never via
    // direct printing from library code (tests/source_lints.rs enforces
    // this).
    let mut console = config.verbose.then(ConsoleSink::stderr);
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut opt = Adam::new(config.learning_rate);
    let mut stats = TrainStats::default();
    let train_t0 = now_if(tracing);
    if tracing {
        trace.record(&TraceEvent::TrainStart {
            epochs: config.epochs,
            num_docs: corpus.num_docs(),
            batch_size: config.batch_size,
        });
    }
    'train: for epoch in 0..config.epochs {
        let epoch_t0 = now_if(tracing);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        let mut epoch_skipped = 0usize;
        let mut accum = ComponentAccum::default();
        for (batch_idx, batch) in
            BatchIter::new(corpus.num_docs(), config.batch_size, &mut rng).enumerate()
        {
            let arena0 = if tracing {
                ct_tensor::arena::counters()
            } else {
                (0, 0)
            };
            let outcome = if batch.len() <= micro {
                single_tape_batch(
                    backbone, &tape, params, corpus, &batch, &mut reg, &mut rng, tracing,
                )
            } else {
                sharded_batch(
                    backbone, &tape, params, corpus, &batch, micro, &mut reg, &mut rng, tracing,
                )
            };
            let out = match outcome {
                Ok(out) => out,
                Err(loss_v) => {
                    // The batch step left the gradient sinks untouched (no
                    // backward has run since the optimizer step zeroed
                    // them), so there is nothing to clear before skipping.
                    match config.divergence {
                        DivergencePolicy::SkipBatch => {
                            epoch_skipped += 1;
                            stats.skipped_batches += 1;
                            if tracing {
                                trace.record(&TraceEvent::BatchSkipped {
                                    epoch,
                                    batch: batch_idx,
                                    loss: loss_v,
                                });
                            }
                            continue;
                        }
                        DivergencePolicy::Halt => {
                            stats.outcome = TrainOutcome::HaltedOnDivergence {
                                epoch,
                                batch: batch_idx,
                                loss: loss_v,
                            };
                            let ev = TraceEvent::HaltedOnDivergence {
                                epoch,
                                batch: batch_idx,
                                loss: loss_v,
                            };
                            if tracing {
                                trace.record(&ev);
                            }
                            if let Some(c) = &mut console {
                                c.record(&ev);
                            }
                            break 'train;
                        }
                    }
                }
            };
            epoch_loss += out.loss as f64;
            batches += 1;
            let step_t0 = now_if(tracing);
            let (grad_norm, clipped) = if config.grad_clip > 0.0 {
                let report = params.clip_grad_norm_report(config.grad_clip);
                (report.pre_norm, report.clipped)
            } else if tracing {
                (params.grad_norm(), false)
            } else {
                (0.0, false)
            };
            opt.step(params);
            let step_ns = ns_since(step_t0);
            accum.add(&out.components, grad_norm);
            if tracing {
                let arena1 = ct_tensor::arena::counters();
                trace.record(&TraceEvent::BatchEnd {
                    epoch,
                    batch: batch_idx,
                    loss: out.loss,
                    components: out.components,
                    grad_norm,
                    clipped,
                    adam_step: opt.steps(),
                    forward_ns: out.forward_ns,
                    backward_ns: out.backward_ns,
                    step_ns,
                    shards: out.shards,
                    arena_reuse: arena1.0.saturating_sub(arena0.0),
                    arena_miss: arena1.1.saturating_sub(arena0.1),
                });
            }
        }
        if batches == 0 {
            if epoch_skipped > 0 {
                // Every batch diverged: terminal event, not a NaN mean.
                stats.outcome = TrainOutcome::AllBatchesDiverged { epoch };
                let ev = TraceEvent::AllBatchesDiverged { epoch };
                if tracing {
                    trace.record(&ev);
                }
                if let Some(c) = &mut console {
                    c.record(&ev);
                }
                break 'train;
            }
            // Empty corpus: nothing to record for this epoch.
            continue;
        }
        let mean = (epoch_loss / batches as f64) as f32;
        let (mean_components, mean_grad_norm) = accum.mean(batches);
        stats.epoch_losses.push(mean);
        stats.epoch_components.push(mean_components);
        if tracing || console.is_some() {
            let ev = TraceEvent::EpochEnd {
                epoch,
                mean_loss: mean,
                components: mean_components,
                grad_norm: mean_grad_norm,
                batches,
                skipped: epoch_skipped,
                wall_ns: ns_since(epoch_t0),
            };
            if tracing {
                trace.record(&ev);
            }
            if let Some(c) = &mut console {
                c.record(&ev);
            }
        }
    }
    if tracing {
        trace.record(&TraceEvent::TrainEnd {
            epochs_run: stats.epoch_losses.len(),
            skipped_batches: stats.skipped_batches,
            wall_ns: ns_since(train_t0),
        });
    }
    stats
}

/// The legacy single-tape batch: identical op order, RNG stream and
/// (same-tape) regularizer placement as the historical driver, so runs
/// whose batches fit in one micro-batch stay bitwise reproducible against
/// checkpoints from before the data-parallel driver existed. Returns
/// `Err(loss)` for a non-finite loss, before any gradient reaches the
/// parameter registry.
#[allow(clippy::too_many_arguments)]
fn single_tape_batch<B: Backbone>(
    backbone: &B,
    tape: &Tape,
    params: &mut Params,
    corpus: &BowCorpus,
    batch: &[usize],
    reg: &mut Option<(f32, RegClosure<'_>)>,
    rng: &mut StdRng,
    timing: bool,
) -> Result<BatchOutcome, f32> {
    tape.reset();
    let x = corpus.csr_batch(batch);
    let fwd_t0 = now_if(timing);
    let out = backbone.batch_loss(tape, params, &x, batch, rng);
    let (loss, components) = match reg.as_mut() {
        None => (out.loss, out.components(None)),
        Some((lambda, reg_fn)) => {
            let r = reg_fn(tape, out.beta, rng);
            let weighted = *lambda * r.scalar_value();
            (
                out.loss.add(r.scale(*lambda)),
                out.components(Some(weighted)),
            )
        }
    };
    let loss_v = loss.scalar_value();
    // Running statistics land even when the batch is then skipped as
    // divergent.
    params.apply_ema(tape.take_ema_updates());
    let forward_ns = ns_since(fwd_t0);
    if !loss_v.is_finite() {
        return Err(loss_v);
    }
    let bwd_t0 = now_if(timing);
    let grads = tape.backward(loss);
    grads.accumulate_into(params);
    let backward_ns = ns_since(bwd_t0);
    grads.recycle();
    Ok(BatchOutcome {
        loss: loss_v,
        components,
        forward_ns,
        backward_ns,
        shards: 1,
    })
}

/// The sharded batch: fans the fixed micro partition out over the pool
/// and reduces in micro order (see [`train_backbone`]). Returns
/// `Err(loss)` for a non-finite micro loss or regularizer value, before
/// any gradient reaches the parameter registry.
#[allow(clippy::too_many_arguments)]
fn sharded_batch<B: Backbone>(
    backbone: &B,
    tape: &Tape,
    params: &mut Params,
    corpus: &BowCorpus,
    batch: &[usize],
    micro: usize,
    reg: &mut Option<(f32, RegClosure<'_>)>,
    rng: &mut StdRng,
    timing: bool,
) -> Result<BatchOutcome, f32> {
    // Fixed partition: contiguous chunks of `micro` documents. The
    // partition depends only on the batch and `micro_batch`, never on the
    // worker count.
    let micros: Vec<&[usize]> = batch.chunks(micro).collect();
    let n_micros = micros.len();
    let total = batch.len() as f32;
    // One RNG seed per micro-batch, drawn from the driver stream in micro
    // order *before* dispatch so the stream is schedule-free.
    let seeds: Vec<u64> = micros.iter().map(|_| rng.gen::<u64>()).collect();
    let fwd_t0 = now_if(timing);
    let slots: Vec<Mutex<Option<MicroSlot>>> = micros.iter().map(|_| Mutex::new(None)).collect();
    {
        let params: &Params = params;
        // One work item per micro-batch.
        pool::run_partitioned(n_micros, 1, |range| {
            for m in range {
                // Force single-threaded math inside the micro so its
                // reduction order is fixed regardless of which worker runs
                // it (and to keep pool use non-nested).
                let slot = pool::with_threads(1, || {
                    let mut mrng = StdRng::seed_from_u64(seeds[m]);
                    let x = corpus.csr_batch(micros[m]);
                    let mtape = Tape::new();
                    let out = backbone.batch_loss(&mtape, params, &x, micros[m], &mut mrng);
                    let ema = mtape.take_ema_updates();
                    let loss_v = out.loss.scalar_value();
                    if !loss_v.is_finite() {
                        return (ema, Err(loss_v));
                    }
                    let kl = out.kl.map(|k| k.scalar_value());
                    let grads = mtape.backward(out.loss).into_param_grads();
                    mtape.reset();
                    let out = MicroOut {
                        loss: loss_v,
                        kl,
                        grads,
                    };
                    (ema, Ok(out))
                });
                *slots[m].lock().unwrap() = Some(slot);
            }
        });
    }
    // Apply the running-statistic updates micro by micro, in micro order,
    // so they do not depend on the worker schedule. Like the single-tape
    // path, they land even when the batch is then skipped as divergent.
    let mut results = Vec::with_capacity(n_micros);
    for slot in &slots {
        let (ema, result) = slot.lock().unwrap().take().expect("micro result missing");
        params.apply_ema(ema);
        results.push(result);
    }
    let forward_ns = ns_since(fwd_t0);
    // The first non-finite micro skips the batch before anything touches
    // the gradient sinks.
    let outs = results.into_iter().collect::<Result<Vec<_>, f32>>()?;
    let bwd_t0 = now_if(timing);
    // The batch-level regularizer is a function of beta alone, so it is
    // built once per mini-batch on the driver thread, on its own tape; its
    // gradient joins the reduction after the micro sum.
    let mut reg_weighted = None;
    let mut reg_grads = None;
    if let Some((lambda, reg_fn)) = reg.as_mut() {
        tape.reset();
        let beta = backbone.beta_var(tape, params);
        let r = reg_fn(tape, beta, rng);
        let rv = r.scalar_value();
        if !rv.is_finite() {
            return Err(rv);
        }
        reg_weighted = Some(*lambda * rv);
        reg_grads = Some(tape.backward(r.scale(*lambda)));
    }
    // Fixed-order weighted reduction: micro m contributes with weight
    // n_m / N, so the total equals the full-batch per-document mean.
    let mut loss_total = 0.0f32;
    let mut kl_total: Option<f32> = None;
    for (m, out) in outs.into_iter().enumerate() {
        let w = micros[m].len() as f32 / total;
        loss_total += w * out.loss;
        if let Some(k) = out.kl {
            *kl_total.get_or_insert(0.0) += w * k;
        }
        for (pid, g) in out.grads {
            params.grad_mut(pid).axpy(w, &g);
            ct_tensor::arena::recycle(g);
        }
    }
    if let Some(g) = reg_grads {
        g.accumulate_into(params);
        g.recycle();
    }
    let backward_ns = ns_since(bwd_t0);
    Ok(BatchOutcome {
        loss: loss_total + reg_weighted.unwrap_or(0.0),
        components: LossComponents {
            backbone: loss_total,
            kl: kl_total,
            regularizer: reg_weighted,
        },
        forward_ns,
        backward_ns,
        shards: n_micros,
    })
}
