//! Shared model interface, training configuration and run records. The
//! training driver itself is [`crate::backbone::train_backbone`].

use ct_corpus::BowCorpus;
use ct_tensor::Tensor;

use crate::encoder::EncoderWeights;
use crate::trace::LossComponents;

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

/// Amortized θ inference over a whole corpus in blocks: runs the
/// tape-free eval forward [`EncoderWeights::infer_theta`] on CSR-backed
/// batches of 512 documents (the forward is normalize-then-matmul, which
/// the sparse storage backend handles with bitwise-identical results) and
/// stacks the resulting `(batch, K)` rows.
pub fn infer_theta_blocked(corpus: &BowCorpus, encoder: &EncoderWeights) -> Tensor {
    const BLOCK: usize = 512;
    let d = corpus.num_docs();
    let k = encoder.num_topics();
    let mut theta = Tensor::zeros(d, k);
    let mut d0 = 0;
    while d0 < d {
        let d1 = (d0 + BLOCK).min(d);
        let idx: Vec<usize> = (d0..d1).collect();
        let x = corpus.csr_batch(&idx);
        let block = encoder.infer_theta(&x);
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
    use crate::backbone::{train_backbone, Backbone, BackboneOut, Fitted, RegClosure};
    use crate::encoder::Encoder;
    use crate::testutil::{cluster_corpus, cluster_embeddings};
    use crate::trace::{CollectSink, TraceEvent};
    use crate::{
        fit_clntm, fit_ecrtm, fit_etm, fit_nstm, fit_ntmr, fit_prodlda, fit_vtmrl, fit_wete,
        fit_wlda,
    };
    use ct_corpus::{NpmiMatrix, SparseDoc, Vocab};
    use ct_tensor::{params_to_bytes, ParamId, Params, Tape, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn tiny_corpus() -> BowCorpus {
        let vocab = Vocab::from_words((0..6).map(|i| format!("w{i}")));
        let mut c = BowCorpus::new(vocab);
        for _ in 0..20 {
            c.docs.push(SparseDoc::from_tokens(&[0, 1, 2]));
            c.docs.push(SparseDoc::from_tokens(&[3, 4, 5]));
        }
        c
    }

    /// A one-parameter backbone for driver tests: a per-word bias `b`
    /// fitted to raw counts, `loss = mean((x - b)²)`, with `beta =
    /// softmax(b)`. Any (micro-)batch holding a document listed in
    /// `poisoned` returns a NaN loss, so which batches diverge is fixed by
    /// document index, never by scheduling. Its encoder only fills the
    /// trait's slot: the loss never reads it, so it is never trained.
    struct BiasBackbone {
        b: ParamId,
        encoder: Encoder,
        poisoned: Vec<usize>,
    }

    impl Backbone for BiasBackbone {
        fn name(&self) -> &'static str {
            "bias"
        }

        fn batch_loss<'t>(
            &self,
            tape: &'t Tape,
            params: &Params,
            x: &Tensor,
            indices: &[usize],
            _rng: &mut StdRng,
        ) -> BackboneOut<'t> {
            let bv = tape.param(params, self.b);
            let loss = if indices.iter().any(|d| self.poisoned.contains(d)) {
                tape.constant(Tensor::scalar(f32::NAN))
            } else {
                tape.constant(x.to_dense()).sub(bv).square().mean_all()
            };
            BackboneOut::new(loss, bv.softmax_rows(1.0))
        }

        fn beta_var<'t>(&self, tape: &'t Tape, params: &Params) -> Var<'t> {
            tape.param(params, self.b).softmax_rows(1.0)
        }

        fn encoder(&self) -> &Encoder {
            &self.encoder
        }

        fn beta_tensor(&self, params: &Params) -> Tensor {
            params.value(self.b).clone()
        }

        fn num_topics(&self) -> usize {
            1
        }
    }

    /// `micro_batch` values for a batch of 8: the single-tape path, then
    /// the sharded path with a ragged 3 + 3 + 2 partition.
    const PATHS: [usize; 2] = [8, 3];

    struct Run {
        stats: TrainStats,
        sink: CollectSink,
        params: Params,
        initial: Vec<u8>,
    }

    impl Run {
        /// Parameters bitwise as initialized and every gradient sink zero:
        /// no diverged batch reached the registry.
        fn untouched(&self) -> bool {
            params_to_bytes(&self.params) == self.initial
                && self
                    .params
                    .ids()
                    .all(|id| self.params.grad(id).data().iter().all(|&g| g == 0.0))
        }

        fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
            self.sink.events.iter().filter(|e| pred(e)).count()
        }
    }

    /// A regularizer that is NaN for every `beta`.
    fn nan_regularizer<'t>(_: &'t Tape, beta: Var<'t>, _: &mut StdRng) -> Var<'t> {
        beta.sum_all().scale(f32::NAN)
    }

    /// Train [`BiasBackbone`] on [`tiny_corpus`] through the production
    /// driver, with [`nan_regularizer`] attached when `nan_reg` is set.
    fn train_bias(config: &TrainConfig, poisoned: Vec<usize>, nan_reg: bool) -> Run {
        let corpus = tiny_corpus();
        let mut params = Params::new();
        let b = params.add("b", Tensor::zeros(1, 6));
        let encoder = Encoder::new(
            &mut params,
            "enc",
            6,
            &TrainConfig {
                num_topics: 1,
                ..TrainConfig::tiny()
            },
            &mut StdRng::seed_from_u64(0),
        );
        let initial = params_to_bytes(&params);
        let backbone = BiasBackbone {
            b,
            encoder,
            poisoned,
        };
        let mut sink = CollectSink::default();
        let mut reg_fn = nan_regularizer;
        let reg = nan_reg.then_some((1.0, &mut reg_fn as RegClosure<'_>));
        let stats = train_backbone(&backbone, &mut params, &corpus, config, reg, &mut sink);
        Run {
            stats,
            sink,
            params,
            initial,
        }
    }

    #[test]
    fn skip_policy_counts_diverged_batches_and_keeps_means_finite() {
        for micro in PATHS {
            let config = TrainConfig {
                epochs: 3,
                batch_size: 8, // 5 batches per epoch over 40 docs
                ..TrainConfig::tiny()
            }
            .with_micro_batch(micro);
            // Doc 0 lands in exactly one batch per epoch: 3 skips, never all 5.
            let run = train_bias(&config, vec![0], false);
            let stats = &run.stats;
            assert_eq!(stats.skipped_batches, 3, "micro {micro}");
            assert_eq!(stats.outcome, TrainOutcome::Completed);
            assert_eq!(stats.epoch_losses.len(), 3);
            assert!(stats.epoch_losses.iter().all(|l| l.is_finite()));
            assert_eq!(stats.epoch_components.len(), 3);
            assert_eq!(
                run.count(|e| matches!(e, TraceEvent::BatchSkipped { .. })),
                3
            );
            assert_eq!(run.count(|e| matches!(e, TraceEvent::BatchEnd { .. })), 12);
            let epoch_skips: usize = run
                .sink
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::EpochEnd { skipped, .. } => Some(*skipped),
                    _ => None,
                })
                .sum();
            assert_eq!(epoch_skips, 3);
        }
    }

    #[test]
    fn halt_policy_stops_on_first_divergence() {
        for micro in PATHS {
            let config = TrainConfig {
                epochs: 3,
                batch_size: 8,
                divergence: DivergencePolicy::Halt,
                ..TrainConfig::tiny()
            }
            .with_micro_batch(micro);
            let run = train_bias(&config, vec![0], false);
            // Halts at doc 0's batch; every batch before it stepped.
            let stepped = run.count(|e| matches!(e, TraceEvent::BatchEnd { .. }));
            assert!(
                matches!(
                    run.stats.outcome,
                    TrainOutcome::HaltedOnDivergence { epoch: 0, batch, .. } if batch == stepped
                ),
                "micro {micro}: {:?} after {stepped} batches",
                run.stats.outcome
            );
            assert!(run.stats.check_diverged().is_err());
            // The partial epoch is not recorded.
            assert!(run.stats.epoch_losses.is_empty());
            assert_eq!(
                run.count(|e| matches!(e, TraceEvent::HaltedOnDivergence { .. })),
                1
            );
        }
    }

    #[test]
    fn all_diverged_epoch_is_terminal_not_nan() {
        for micro in PATHS {
            let config = TrainConfig {
                epochs: 4,
                batch_size: 8,
                ..TrainConfig::tiny()
            }
            .with_micro_batch(micro);
            let run = train_bias(&config, (0..40).collect(), false);
            let stats = &run.stats;
            assert_eq!(stats.outcome, TrainOutcome::AllBatchesDiverged { epoch: 0 });
            assert!(stats.epoch_losses.is_empty(), "no NaN means recorded");
            assert_eq!(stats.skipped_batches, 5, "one epoch of skips, then stop");
            assert!(run.untouched(), "micro {micro}");
            assert_eq!(
                run.count(|e| matches!(e, TraceEvent::AllBatchesDiverged { epoch: 0 })),
                1
            );
            let msg = stats.check_diverged().unwrap_err();
            assert!(msg.contains("every batch"), "{msg}");
        }
    }

    #[test]
    fn trace_events_carry_grad_norm_and_components() {
        for (micro, shards) in PATHS.into_iter().zip([1, 3]) {
            let config = TrainConfig {
                epochs: 1,
                batch_size: 8,
                grad_clip: 1e-6, // tiny cap: clipping must trigger
                ..TrainConfig::tiny()
            }
            .with_micro_batch(micro);
            let run = train_bias(&config, Vec::new(), false);
            let batch_events: Vec<_> = run
                .sink
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::BatchEnd {
                        grad_norm,
                        clipped,
                        adam_step,
                        components,
                        shards,
                        ..
                    } => Some((*grad_norm, *clipped, *adam_step, *components, *shards)),
                    _ => None,
                })
                .collect();
            assert_eq!(batch_events.len(), 5);
            for (i, &(grad_norm, clipped, adam_step, components, n)) in
                batch_events.iter().enumerate()
            {
                assert!(grad_norm > 0.0, "pre-clip norm recorded");
                assert!(clipped, "1e-6 cap must clip");
                assert_eq!(adam_step, i as u64 + 1);
                assert!(components.backbone.is_finite());
                assert_eq!(n, shards, "micro {micro}");
            }
        }
    }

    #[test]
    fn nan_micro_skips_the_sharded_batch_with_params_unchanged() {
        // One 40-doc batch in five micros; doc 0's micro diverges while the
        // other four finish their backward passes.
        let config = TrainConfig {
            epochs: 1,
            batch_size: 40,
            ..TrainConfig::tiny()
        }
        .with_micro_batch(8);
        let run = train_bias(&config, vec![0], false);
        assert_eq!(run.stats.skipped_batches, 1);
        assert_eq!(
            run.stats.outcome,
            TrainOutcome::AllBatchesDiverged { epoch: 0 }
        );
        assert!(run.untouched());
    }

    #[test]
    fn nan_regularizer_skips_the_batch_with_params_unchanged() {
        // Single-tape (micro 40) and sharded (micro 8) paths: the
        // backbone loss is finite everywhere, only the regularizer is NaN.
        for micro in [40, 8] {
            let config = TrainConfig {
                epochs: 1,
                batch_size: 40,
                ..TrainConfig::tiny()
            }
            .with_micro_batch(micro);
            let run = train_bias(&config, Vec::new(), true);
            assert_eq!(run.stats.skipped_batches, 1, "micro {micro}");
            assert_eq!(
                run.stats.outcome,
                TrainOutcome::AllBatchesDiverged { epoch: 0 }
            );
            assert!(run.untouched(), "micro {micro}");
        }
    }

    /// Blocked inference over CSR blocks of 512 documents equals one
    /// dense forward over the whole corpus, bitwise, for every neural
    /// backbone.
    #[test]
    fn infer_theta_blocked_stacks_blocks() {
        // 1200 documents: blocks of 512, 512 and a ragged 176.
        let corpus = cluster_corpus(3, 12, 400);
        let emb = cluster_embeddings(&corpus);
        let npmi = Arc::new(NpmiMatrix::from_corpus(&corpus));
        let config = TrainConfig {
            num_topics: 4,
            epochs: 1,
            batch_size: 256,
            ..TrainConfig::tiny()
        };
        let all: Vec<usize> = (0..corpus.num_docs()).collect();
        let dense = corpus.dense_batch(&all);
        fn check<B: Backbone>(model: &Fitted<B>, corpus: &BowCorpus, dense: &Tensor) {
            let blocked = model.theta(corpus);
            assert_eq!(blocked.shape(), (corpus.num_docs(), 4));
            let whole = model.backbone.encoder().export_weights(&model.params);
            assert_eq!(blocked, whole.infer_theta(dense), "{}", model.name());
        }
        check(&fit_prodlda(&corpus, &config), &corpus, &dense);
        check(&fit_wlda(&corpus, &config), &corpus, &dense);
        check(&fit_etm(&corpus, emb.clone(), &config), &corpus, &dense);
        check(&fit_nstm(&corpus, emb.clone(), &config), &corpus, &dense);
        check(&fit_wete(&corpus, emb.clone(), &config), &corpus, &dense);
        check(&fit_ntmr(&corpus, emb.clone(), &config), &corpus, &dense);
        check(
            &fit_vtmrl(&corpus, emb.clone(), npmi, &config),
            &corpus,
            &dense,
        );
        check(&fit_clntm(&corpus, emb.clone(), &config), &corpus, &dense);
        check(&fit_ecrtm(&corpus, emb, &config), &corpus, &dense);
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
