//! Shared model interface and training driver.

use std::time::Instant;

use ct_corpus::{BatchIter, BowCorpus};
use ct_tensor::{Adam, Optimizer, Params, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{ConsoleSink, LossComponents, NoopSink, TraceEvent, TraceSink};

/// What the training driver does when a batch loss comes back non-finite.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DivergencePolicy {
    /// Drop the batch (no gradient step) and keep going. Skips are counted
    /// in [`TrainStats::skipped_batches`] and reported to the trace sink;
    /// an epoch in which *every* batch diverges terminates training with
    /// [`TrainOutcome::AllBatchesDiverged`].
    #[default]
    SkipBatch,
    /// Stop training at the first non-finite loss
    /// ([`TrainOutcome::HaltedOnDivergence`]).
    Halt,
}

/// Hyper-parameters shared by all neural topic models, mirroring the
/// paper's §V-D (scaled to single-core CPU training: the paper uses K=100
/// topics, 800 hidden units, batch 1000, 100 epochs on 2 RTX8000s).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of topics `K`.
    pub num_topics: usize,
    /// Encoder hidden width (paper: 800).
    pub hidden: usize,
    /// Encoder depth (paper: 3).
    pub encoder_depth: usize,
    /// Dropout rate after the encoder MLP (paper: 0.5).
    pub dropout: f32,
    /// Word/topic embedding dimension for ETM-family decoders.
    pub embed_dim: usize,
    /// Decoder softmax temperature `tau_beta` (paper: 0.1).
    pub tau_beta: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (paper: 1000).
    pub batch_size: usize,
    /// Adam learning rate (paper: 5e-4).
    pub learning_rate: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// RNG seed for init, batching and sampling.
    pub seed: u64,
    /// Print per-epoch losses (routed through a
    /// [`crate::trace::ConsoleSink`] on stderr).
    pub verbose: bool,
    /// What to do when a batch loss diverges (non-finite).
    pub divergence: DivergencePolicy,
    /// Micro-batch size for data-parallel training. Every mini-batch is
    /// split into fixed contiguous micro-batches of this many documents;
    /// each micro-batch runs forward + backward on its own tape, and the
    /// gradients are combined in micro-batch order. Because the partition
    /// depends only on this value (never on the worker count), trained
    /// parameters are bitwise identical for any `CT_NUM_THREADS`. A
    /// mini-batch that fits in one micro-batch takes the single-tape path.
    pub micro_batch: usize,
    /// Dispatch width for the micro-batch fan-out: an upper bound on how
    /// many pool workers the micro-batches are spread across. `0` (the
    /// default) lets every micro-batch be its own work item. This knob
    /// only changes scheduling granularity — results are bitwise
    /// identical for any value.
    pub shards: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            num_topics: 40,
            hidden: 128,
            encoder_depth: 2,
            dropout: 0.3,
            embed_dim: 64,
            tau_beta: 0.5,
            epochs: 30,
            batch_size: 256,
            learning_rate: 2e-3,
            grad_clip: 5.0,
            seed: 42,
            verbose: false,
            divergence: DivergencePolicy::SkipBatch,
            micro_batch: 256,
            shards: 0,
        }
    }
}

impl TrainConfig {
    /// A tiny configuration for tests.
    pub fn tiny() -> Self {
        Self {
            num_topics: 8,
            hidden: 32,
            encoder_depth: 2,
            embed_dim: 16,
            epochs: 6,
            batch_size: 64,
            ..Default::default()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the data-parallel micro-batch size (see
    /// [`TrainConfig::micro_batch`]).
    pub fn with_micro_batch(mut self, micro_batch: usize) -> Self {
        self.micro_batch = micro_batch;
        self
    }

    /// Set the micro-batch dispatch width (see [`TrainConfig::shards`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// Common interface every (neural or classical) topic model exposes after
/// fitting.
pub trait TopicModel {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Topic-word distributions, `(K, V)`, rows on the simplex.
    fn beta(&self) -> Tensor;

    /// Document-topic distributions for the given corpus, `(D, K)`, rows on
    /// the simplex. For VAE models this is amortized inference with the
    /// posterior mean (no sampling).
    fn theta(&self, corpus: &BowCorpus) -> Tensor;

    /// Number of topics.
    fn num_topics(&self) -> usize;

    /// Telemetry of the training run that produced this model, when the
    /// implementation keeps it (gradient-trained models do; closed-form
    /// or collapsed-sampling models like LDA return `None`). The
    /// experiment runner uses this to classify diverged trials without
    /// attaching a trace sink to every fit path.
    fn train_stats(&self) -> Option<&TrainStats> {
        None
    }
}

/// How a training run ended.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum TrainOutcome {
    /// All configured epochs ran.
    #[default]
    Completed,
    /// [`DivergencePolicy::Halt`] hit a non-finite batch loss.
    HaltedOnDivergence {
        epoch: usize,
        batch: usize,
        loss: f32,
    },
    /// Every batch of an epoch diverged under
    /// [`DivergencePolicy::SkipBatch`]; training stopped there rather
    /// than recording a NaN epoch mean.
    AllBatchesDiverged { epoch: usize },
}

impl TrainOutcome {
    pub fn is_completed(&self) -> bool {
        *self == TrainOutcome::Completed
    }

    /// Human-readable description of a divergent outcome, `None` when the
    /// run completed.
    pub fn divergence_message(&self) -> Option<String> {
        match self {
            TrainOutcome::Completed => None,
            TrainOutcome::HaltedOnDivergence { epoch, batch, loss } => Some(format!(
                "training halted on non-finite loss {loss} (epoch {}, batch {batch})",
                epoch + 1
            )),
            TrainOutcome::AllBatchesDiverged { epoch } => Some(format!(
                "training diverged: every batch of epoch {} produced a non-finite loss",
                epoch + 1
            )),
        }
    }
}

/// Record of one training run. `epoch_losses`, `epoch_components` and the
/// per-epoch entries are aligned; diverged batches are excluded from the
/// means and counted in `skipped_batches`, so every recorded mean is
/// finite as long as the loss values of non-skipped batches are.
#[derive(Clone, Debug, Default)]
pub struct TrainStats {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean loss-component breakdown per epoch.
    pub epoch_components: Vec<LossComponents>,
    /// Total diverged batches dropped across the run.
    pub skipped_batches: usize,
    /// How the run ended.
    pub outcome: TrainOutcome,
}

impl TrainStats {
    /// `Err` with a description when the run ended in divergence.
    pub fn check_diverged(&self) -> Result<(), String> {
        match self.outcome.divergence_message() {
            None => Ok(()),
            Some(m) => Err(m),
        }
    }
}

/// What a traced loss closure returns for one batch: the scalar loss plus
/// its telemetry breakdown.
pub struct BatchLoss<'t> {
    pub loss: Var<'t>,
    pub components: LossComponents,
}

impl<'t> From<Var<'t>> for BatchLoss<'t> {
    /// Wrap a bare loss: the whole value is attributed to the backbone.
    fn from(loss: Var<'t>) -> Self {
        let components = LossComponents {
            backbone: loss.scalar_value(),
            ..LossComponents::default()
        };
        Self { loss, components }
    }
}

/// Generic mini-batch training loop shared by every neural model.
///
/// `loss_fn(tape, params, x_batch, doc_indices, rng)` builds the scalar
/// loss for one batch; the driver handles shuffled batching, backward,
/// gradient clipping and the Adam step. Equivalent to
/// [`train_loop_traced`] with a [`NoopSink`].
pub fn train_loop<F>(
    corpus: &BowCorpus,
    config: &TrainConfig,
    params: &mut Params,
    mut loss_fn: F,
) -> TrainStats
where
    F: for<'t> FnMut(&'t Tape, &Params, &Tensor, &[usize], &mut StdRng) -> Var<'t>,
{
    train_loop_traced(
        corpus,
        config,
        params,
        |tape, params, x, idx, rng| BatchLoss::from(loss_fn(tape, params, x, idx, rng)),
        &mut NoopSink,
    )
}

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

/// What a batch executor reports back to [`train_loop_core`] for one
/// successfully executed batch. The executor has already run forward and
/// backward and accumulated (pre-clip) gradients into the parameter
/// registry; the driver clips, steps the optimizer and records telemetry.
pub(crate) struct BatchOutcome {
    pub loss: f32,
    pub components: LossComponents,
    /// Forward wall time. On the data-parallel path this covers the whole
    /// micro-batch fan-out (whose per-shard forward and backward are
    /// fused), on the single-tape path just the forward pass.
    pub forward_ns: u64,
    /// Backward wall time. On the data-parallel path this is the
    /// fixed-order gradient reduction (plus the batch-level regularizer).
    pub backward_ns: u64,
    /// Number of micro-batch shards the batch was split into (1 on the
    /// single-tape path).
    pub shards: usize,
}

/// A batch executor: runs forward + backward for the documents in
/// `batch`, accumulates gradients into the params, and returns the batch
/// telemetry — or `Err(loss)` for a non-finite loss, in which case it must
/// leave the gradient sinks untouched so the driver can skip the batch.
pub(crate) type BatchExec<'a> =
    &'a mut dyn FnMut(&mut Params, &[usize], &mut StdRng, bool) -> Result<BatchOutcome, f32>;

/// [`train_loop`] with telemetry: every batch and epoch is reported to
/// `trace`, divergence is surfaced according to
/// [`TrainConfig::divergence`], and the loss closure returns a
/// [`BatchLoss`] carrying the component breakdown. With a disabled sink
/// (the [`NoopSink`] default) no events are built and no clocks are read.
///
/// One tape is reused across all batches: [`Tape::reset`] returns every
/// op-output buffer to the thread-local arena, so steady-state training
/// allocates almost nothing.
pub fn train_loop_traced<F>(
    corpus: &BowCorpus,
    config: &TrainConfig,
    params: &mut Params,
    mut loss_fn: F,
    trace: &mut dyn TraceSink,
) -> TrainStats
where
    F: for<'t> FnMut(&'t Tape, &Params, &Tensor, &[usize], &mut StdRng) -> BatchLoss<'t>,
{
    let tape = Tape::new();
    let mut exec = |params: &mut Params, batch: &[usize], rng: &mut StdRng, timing: bool| {
        tape.reset();
        let x = corpus.dense_batch(batch);
        let fwd_t0 = now_if(timing);
        let BatchLoss { loss, components } = loss_fn(&tape, params, &x, batch, rng);
        let loss_v = loss.scalar_value();
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
    };
    train_loop_core(corpus, config, params, trace, &mut exec)
}

/// The shared epoch/divergence/telemetry machinery behind both the
/// closure-based [`train_loop_traced`] and the data-parallel backbone
/// driver ([`crate::backbone::train_backbone_traced`]). Shuffled batching,
/// gradient clipping, the Adam step, divergence policy and all trace
/// events live here; how a batch turns into gradients is the executor's
/// business.
pub(crate) fn train_loop_core(
    corpus: &BowCorpus,
    config: &TrainConfig,
    params: &mut Params,
    trace: &mut dyn TraceSink,
    exec: BatchExec<'_>,
) -> TrainStats {
    let tracing = trace.enabled();
    // Verbose progress goes through a console sink on stderr, never via
    // direct printing from library code (scripts/check.sh enforces this).
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
            let outcome = exec(params, &batch, &mut rng, tracing);
            let out = match outcome {
                Ok(out) => out,
                Err(loss_v) => {
                    // The executor left the gradient sinks untouched (no
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

/// Amortized θ inference over a whole corpus in blocks: runs `encode` on
/// CSR-backed batches (every eval-mode encoder path is
/// normalize-then-matmul, which the sparse storage backend handles with
/// bitwise-identical results) and stacks the resulting `(batch, K)` rows.
pub fn infer_theta_blocked<F>(corpus: &BowCorpus, k: usize, mut encode: F) -> Tensor
where
    F: FnMut(&Tensor) -> Tensor,
{
    const BLOCK: usize = 512;
    let d = corpus.num_docs();
    let mut theta = Tensor::zeros(d, k);
    let mut d0 = 0;
    while d0 < d {
        let d1 = (d0 + BLOCK).min(d);
        let idx: Vec<usize> = (d0..d1).collect();
        let x = corpus.csr_batch(&idx);
        let block = encode(&x);
        assert_eq!(block.shape(), (idx.len(), k), "encode block shape");
        for (r, dd) in (d0..d1).enumerate() {
            theta.row_mut(dd).copy_from_slice(block.row(r));
        }
        d0 = d1;
    }
    theta
}

/// Normalize embedding rows to unit L2 norm (used when loading corpus
/// embeddings into decoders so inner-product logits stay bounded).
pub fn normalize_rows_l2(mut emb: Tensor) -> Tensor {
    for r in 0..emb.rows() {
        let row = emb.row_mut(r);
        let norm = row.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt() as f32;
        if norm > 1e-8 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }
    emb
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_corpus::{SparseDoc, Vocab};

    fn tiny_corpus() -> BowCorpus {
        let vocab = Vocab::from_words((0..6).map(|i| format!("w{i}")));
        let mut c = BowCorpus::new(vocab);
        for _ in 0..20 {
            c.docs.push(SparseDoc::from_tokens(&[0, 1, 2]));
            c.docs.push(SparseDoc::from_tokens(&[3, 4, 5]));
        }
        c
    }

    #[test]
    fn train_loop_reduces_simple_loss() {
        // Learn a per-word bias b to reconstruct mean word counts:
        // loss = mean((x - b)^2).
        let corpus = tiny_corpus();
        let config = TrainConfig {
            epochs: 40,
            batch_size: 8,
            learning_rate: 0.05,
            ..TrainConfig::tiny()
        };
        let mut params = Params::new();
        let b = params.add("b", Tensor::zeros(1, 6));
        let stats = train_loop(
            &corpus,
            &config,
            &mut params,
            |tape, params, x, _idx, _rng| {
                let bv = tape.param(params, b);
                let xc = tape.constant(x.clone());
                xc.sub(bv).square().mean_all()
            },
        );
        assert!(stats.epoch_losses.first().unwrap() > stats.epoch_losses.last().unwrap());
        assert!(*stats.epoch_losses.last().unwrap() < 0.3);
    }

    /// Loss closure that returns `b`-dependent MSE normally but a NaN
    /// constant on batches selected by `diverge` (1-based call count).
    fn diverging_loss(
        corpus: &BowCorpus,
        config: &TrainConfig,
        diverge: impl Fn(usize) -> bool + 'static,
    ) -> (TrainStats, crate::trace::CollectSink) {
        let mut params = Params::new();
        let b = params.add("b", Tensor::zeros(1, 6));
        let mut calls = 0usize;
        let mut sink = crate::trace::CollectSink::default();
        let stats = train_loop_traced(
            corpus,
            config,
            &mut params,
            |tape, params, x, _idx, _rng| {
                calls += 1;
                if diverge(calls) {
                    return BatchLoss::from(tape.constant(Tensor::scalar(f32::NAN)));
                }
                let bv = tape.param(params, b);
                let xc = tape.constant(x.clone());
                BatchLoss::from(xc.sub(bv).square().mean_all())
            },
            &mut sink,
        );
        (stats, sink)
    }

    #[test]
    fn skip_policy_counts_diverged_batches_and_keeps_means_finite() {
        let corpus = tiny_corpus(); // 40 docs
        let config = TrainConfig {
            epochs: 2,
            batch_size: 8, // 5 batches per epoch
            ..TrainConfig::tiny()
        };
        // Every other batch diverges: 2-3 skips per epoch, never all 5.
        let (stats, sink) = diverging_loss(&corpus, &config, |c| c % 2 == 0);
        assert_eq!(stats.skipped_batches, 5, "10 batches, every other one");
        assert_eq!(stats.outcome, TrainOutcome::Completed);
        assert_eq!(stats.epoch_losses.len(), 2);
        assert!(stats.epoch_losses.iter().all(|l| l.is_finite()));
        assert_eq!(stats.epoch_components.len(), 2);
        let skips = sink
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::BatchSkipped { .. }))
            .count();
        assert_eq!(skips, 5);
        let epoch_skips: usize = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::EpochEnd { skipped, .. } => Some(*skipped),
                _ => None,
            })
            .sum();
        assert_eq!(epoch_skips, 5);
    }

    #[test]
    fn halt_policy_stops_on_first_divergence() {
        let corpus = tiny_corpus();
        let config = TrainConfig {
            epochs: 3,
            batch_size: 8,
            divergence: DivergencePolicy::Halt,
            ..TrainConfig::tiny()
        };
        let (stats, sink) = diverging_loss(&corpus, &config, |c| c == 3);
        assert!(matches!(
            stats.outcome,
            TrainOutcome::HaltedOnDivergence {
                epoch: 0,
                batch: 2,
                ..
            }
        ));
        assert!(stats.check_diverged().is_err());
        // The partial epoch is not recorded.
        assert!(stats.epoch_losses.is_empty());
        assert!(sink
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::HaltedOnDivergence { .. })));
    }

    #[test]
    fn all_diverged_epoch_is_terminal_not_nan() {
        let corpus = tiny_corpus();
        let config = TrainConfig {
            epochs: 4,
            batch_size: 8,
            ..TrainConfig::tiny()
        };
        let (stats, sink) = diverging_loss(&corpus, &config, |_| true);
        assert_eq!(stats.outcome, TrainOutcome::AllBatchesDiverged { epoch: 0 });
        assert!(stats.epoch_losses.is_empty(), "no NaN means recorded");
        assert_eq!(stats.skipped_batches, 5, "one epoch of skips, then stop");
        assert!(sink
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::AllBatchesDiverged { epoch: 0 })));
        let msg = stats.check_diverged().unwrap_err();
        assert!(msg.contains("every batch"), "{msg}");
    }

    #[test]
    fn trace_events_carry_grad_norm_and_components() {
        let corpus = tiny_corpus();
        let config = TrainConfig {
            epochs: 1,
            batch_size: 8,
            grad_clip: 1e-6, // tiny cap: clipping must trigger
            ..TrainConfig::tiny()
        };
        let (_stats, sink) = diverging_loss(&corpus, &config, |_| false);
        let batch_events: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BatchEnd {
                    grad_norm,
                    clipped,
                    adam_step,
                    components,
                    ..
                } => Some((*grad_norm, *clipped, *adam_step, *components)),
                _ => None,
            })
            .collect();
        assert_eq!(batch_events.len(), 5);
        for (i, (grad_norm, clipped, adam_step, components)) in batch_events.iter().enumerate() {
            assert!(*grad_norm > 0.0, "pre-clip norm recorded");
            assert!(*clipped, "1e-6 cap must clip");
            assert_eq!(*adam_step, i as u64 + 1);
            assert!(components.backbone.is_finite());
        }
    }

    #[test]
    fn infer_theta_blocked_stacks_blocks() {
        let corpus = tiny_corpus();
        let theta = infer_theta_blocked(&corpus, 2, |x| {
            // Fake encoder: cluster by whether word 0 is present.
            let mut t = Tensor::zeros(x.rows(), 2);
            for r in 0..x.rows() {
                if x.get(r, 0) > 0.0 {
                    t.set(r, 0, 1.0);
                } else {
                    t.set(r, 1, 1.0);
                }
            }
            t
        });
        assert_eq!(theta.shape(), (40, 2));
        assert_eq!(theta.get(0, 0), 1.0);
        assert_eq!(theta.get(1, 1), 1.0);
    }

    #[test]
    fn normalize_rows_l2_unit_norm() {
        let t = Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0], 2, 2);
        let n = normalize_rows_l2(t);
        assert!((n.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((n.get(0, 1) - 0.8).abs() < 1e-6);
        // Zero rows left untouched.
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }
}
