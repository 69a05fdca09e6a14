//! Online topic modeling (the paper's §VI future work): documents arrive
//! in time slices; the NPMI kernel accumulates across slices via
//! [`CoocAccumulator`] and the model warm-starts from the previous slice's
//! parameters, in the spirit of on-line LDA (AlSumait et al. 2008).

use std::io;
use std::path::PathBuf;

use ct_corpus::npmi::{CoocAccumulator, NpmiMatrix};
use ct_corpus::{BowCorpus, Vocab};
use ct_models::trace::{NoopSink, TraceEvent, TraceSink};
use ct_models::{
    train_backbone_regularized_traced, Backbone, EtmBackbone, ModelBundle, TopicModel, TrainConfig,
    TrainStats,
};
use ct_tensor::codec::{self, invalid_data};
use ct_tensor::{Params, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Container magic of a stream checkpoint.
const STATE_MAGIC: &[u8; 8] = b"CTSTREAM";

use crate::kernel::SimilarityKernel;
use crate::model::ContraTopicConfig;
use crate::regularizer::ContrastiveRegularizer;

/// ContraTopic trained over a document stream, one slice at a time.
pub struct OnlineContraTopic {
    backbone: EtmBackbone,
    params: Params,
    accumulator: CoocAccumulator,
    base: TrainConfig,
    config: ContraTopicConfig,
    slices_seen: usize,
    /// Training stats per slice.
    pub slice_stats: Vec<TrainStats>,
}

impl OnlineContraTopic {
    /// Create an untrained online model over a fixed vocabulary.
    pub fn new(
        vocab_size: usize,
        embeddings: Tensor,
        base: TrainConfig,
        config: ContraTopicConfig,
    ) -> Self {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(base.seed);
        let backbone = EtmBackbone::new(&mut params, vocab_size, embeddings, &base, &mut rng);
        Self {
            backbone,
            params,
            accumulator: CoocAccumulator::new(vocab_size),
            base,
            config,
            slices_seen: 0,
            slice_stats: Vec::new(),
        }
    }

    /// Consume one time slice: fold its co-occurrence counts into the
    /// kernel, then continue training (warm start) on the slice's
    /// documents with the regularizer built from *all* counts so far.
    pub fn fit_slice(&mut self, slice: &BowCorpus) {
        self.fit_slice_traced(slice, &mut NoopSink);
    }

    /// [`Self::fit_slice`] with telemetry routed to `trace`. The slice
    /// index is announced as a `Meta { key: "slice" }` event before the
    /// training events, so one JSONL stream can carry a whole stream run.
    pub fn fit_slice_traced(&mut self, slice: &BowCorpus, trace: &mut dyn TraceSink) {
        assert!(slice.num_docs() > 0, "empty slice");
        self.accumulator.add_corpus(slice);
        let kernel = SimilarityKernel::from_npmi_owned(self.accumulator.to_npmi());
        let reg = ContrastiveRegularizer::new(kernel, self.config.sampler, self.config.variant);
        // Distinct seed per slice so batching/Gumbel noise differ.
        let mut cfg = self.base.clone();
        cfg.seed = self.base.seed.wrapping_add(self.slices_seen as u64 + 1);
        let lambda = self.config.lambda;
        let backbone = &self.backbone;
        if trace.enabled() {
            trace.record(&TraceEvent::Meta {
                key: "slice",
                value: self.slices_seen.to_string(),
            });
        }
        let stats = train_backbone_regularized_traced(
            backbone,
            &mut self.params,
            slice,
            &cfg,
            lambda,
            |tape, beta, rng| reg.loss(tape, beta, rng),
            trace,
        );
        if trace.enabled() {
            trace.record(&TraceEvent::Counter {
                name: "masks_built",
                value: reg.masks_built() as u64,
            });
        }
        self.slice_stats.push(stats);
        self.slices_seen += 1;
    }

    /// Number of slices consumed so far.
    pub fn slices_seen(&self) -> usize {
        self.slices_seen
    }

    /// Documents counted into the kernel so far.
    pub fn docs_seen(&self) -> usize {
        self.accumulator.num_docs()
    }

    /// The trained backbone (e.g. to export a serving snapshot).
    pub fn backbone(&self) -> &EtmBackbone {
        &self.backbone
    }

    /// The current parameter store.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The co-occurrence counts accumulated so far.
    pub fn accumulator(&self) -> &CoocAccumulator {
        &self.accumulator
    }

    /// Materialize the NPMI statistics over every document seen so far
    /// (the same matrix the regularizer of the *next* slice will use).
    ///
    /// Panics if no slice has been consumed yet.
    pub fn npmi(&self) -> NpmiMatrix {
        self.accumulator.to_npmi()
    }

    /// Checkpoint the full online-training state to `<prefix>.state`.
    ///
    /// The file is one checksummed container holding the model bundle's
    /// sections (`config`, `vocab`, `params`), a `meta` section
    /// (`slices_seen=<n>`) and the co-occurrence counts (`cooc`), written
    /// by a single atomic, durable rename. A kill at any instant therefore
    /// leaves either the previous checkpoint or this one, never a mixed
    /// state that would break bitwise resume replay.
    pub fn save_state(&self, prefix: &str, vocab: &Vocab) -> io::Result<()> {
        let mut cooc = Vec::new();
        self.accumulator.write_to(&mut cooc)?;
        let mut sections = Vec::from(ModelBundle::sections(&self.base, vocab, &self.params));
        sections.push((
            "meta",
            format!("slices_seen={}\n", self.slices_seen).into_bytes(),
        ));
        sections.push(("cooc", cooc));
        codec::write_file(&Self::state_path(prefix), STATE_MAGIC, &sections)
    }

    /// The checkpoint file of `prefix`: `<prefix>.state`.
    pub fn state_path(prefix: &str) -> PathBuf {
        PathBuf::from(format!("{prefix}.state"))
    }

    /// Restore a checkpoint written by [`Self::save_state`]. Neither the
    /// optimizer schedule (epochs per slice, batch size, learning rate)
    /// nor the regularizer configuration is part of the on-disk state, so
    /// the caller must supply the same `base`/`config` used originally —
    /// exact trajectory replay depends on it. The architecture fields of
    /// `base` are cross-checked against the bundle and a mismatch is
    /// rejected. Returns the model and the vocabulary it was trained over.
    pub fn load_state(
        prefix: &str,
        base: TrainConfig,
        config: ContraTopicConfig,
    ) -> io::Result<(Self, Vocab)> {
        let (slices_seen, (bundle, backbone, params), accumulator) =
            codec::read_file(&Self::state_path(prefix), STATE_MAGIC, |file| {
                let meta = file.section("meta")?;
                let slices_seen = std::str::from_utf8(meta)
                    .ok()
                    .and_then(|m| m.strip_prefix("slices_seen="))
                    .and_then(|v| v.trim_end().parse::<usize>().ok())
                    .ok_or_else(|| invalid_data("bad meta section"))?;
                let model = ModelBundle::from_container(file)?;
                let accumulator = CoocAccumulator::read_from(&mut file.section("cooc")?)?;
                Ok((slices_seen, model, accumulator))
            })?;
        let b = &bundle.config;
        if (b.num_topics, b.hidden, b.encoder_depth, b.embed_dim, b.seed)
            != (
                base.num_topics,
                base.hidden,
                base.encoder_depth,
                base.embed_dim,
                base.seed,
            )
        {
            return Err(invalid_data(format!(
                "checkpoint architecture (topics={}, hidden={}, depth={}, embed={}, seed={}) \
                 does not match the supplied configuration",
                b.num_topics, b.hidden, b.encoder_depth, b.embed_dim, b.seed
            )));
        }
        if accumulator.vocab_size() != bundle.vocab.len() {
            return Err(invalid_data(format!(
                "checkpoint vocab mismatch: accumulator over {} words, bundle over {}",
                accumulator.vocab_size(),
                bundle.vocab.len()
            )));
        }
        Ok((
            Self {
                backbone,
                params,
                accumulator,
                base,
                config,
                slices_seen,
                slice_stats: Vec::new(),
            },
            bundle.vocab,
        ))
    }
}

impl TopicModel for OnlineContraTopic {
    fn name(&self) -> &'static str {
        "OnlineContraTopic"
    }

    fn beta(&self) -> Tensor {
        self.backbone.beta_tensor(&self.params)
    }

    fn theta(&self, corpus: &BowCorpus) -> Tensor {
        ct_models::common::infer_theta_blocked(corpus, self.backbone.num_topics(), |x| {
            self.backbone.infer_theta_batch(&self.params, x)
        })
    }

    fn num_topics(&self) -> usize {
        self.backbone.num_topics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gumbel::SubsetSamplerConfig;
    use ct_corpus::NpmiMatrix;
    use ct_eval::TopicScores;
    use ct_models::testutil::{cluster_corpus, cluster_embeddings};

    fn config() -> (TrainConfig, ContraTopicConfig) {
        (
            TrainConfig {
                num_topics: 2,
                hidden: 32,
                epochs: 15,
                batch_size: 64,
                learning_rate: 5e-3,
                embed_dim: 8,
                ..TrainConfig::default()
            },
            ContraTopicConfig {
                lambda: 5.0,
                sampler: SubsetSamplerConfig { v: 4, tau_g: 0.5 },
                ..Default::default()
            },
        )
    }

    #[test]
    fn online_training_improves_over_slices() {
        let corpus = cluster_corpus(2, 12, 90);
        let emb = cluster_embeddings(&corpus);
        let (base, cfg) = config();
        let mut online = OnlineContraTopic::new(corpus.vocab_size(), emb, base, cfg);

        // Three slices of 60 docs each.
        let slices: Vec<_> = (0..3)
            .map(|s| corpus.subset(&(s * 60..(s + 1) * 60).collect::<Vec<_>>()))
            .collect();
        let npmi = NpmiMatrix::from_corpus(&corpus);
        let mut coherences = Vec::new();
        for slice in &slices {
            online.fit_slice(slice);
            let scores = TopicScores::compute(&online.beta(), &npmi, 5);
            coherences.push(scores.coherence_at(1.0));
        }
        assert_eq!(online.slices_seen(), 3);
        assert_eq!(online.docs_seen(), 180);
        // Warm-started later slices should not be worse than the first.
        assert!(
            coherences[2] >= coherences[0] - 0.05,
            "coherence regressed across slices: {coherences:?}"
        );
        assert!(!online.beta().has_non_finite());
    }

    #[test]
    fn checkpoint_resume_replays_bitwise() {
        let dir = std::env::temp_dir().join(format!("ct_online_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("stream").to_str().unwrap().to_string();

        let corpus = cluster_corpus(2, 12, 90);
        let emb = cluster_embeddings(&corpus);
        let (mut base, cfg) = config();
        base.epochs = 3;
        let slices: Vec<_> = (0..3)
            .map(|s| corpus.subset(&(s * 60..(s + 1) * 60).collect::<Vec<_>>()))
            .collect();

        // Uninterrupted run.
        let mut straight =
            OnlineContraTopic::new(corpus.vocab_size(), emb.clone(), base.clone(), cfg.clone());
        for slice in &slices {
            straight.fit_slice(slice);
        }

        // Interrupted run: checkpoint after slice 2, "kill", restore,
        // finish. Only the files survive the kill.
        let mut first = OnlineContraTopic::new(corpus.vocab_size(), emb, base.clone(), cfg.clone());
        first.fit_slice(&slices[0]);
        first.save_state(&prefix, &corpus.vocab).unwrap();
        first.fit_slice(&slices[1]);
        first.save_state(&prefix, &corpus.vocab).unwrap();
        drop(first);
        let (mut resumed, vocab) = OnlineContraTopic::load_state(&prefix, base, cfg).unwrap();
        assert_eq!(resumed.slices_seen(), 2);
        assert_eq!(vocab.len(), corpus.vocab_size());
        resumed.fit_slice(&slices[2]);

        // Bitwise: same parameters, same kernel counts.
        assert_eq!(straight.beta(), resumed.beta());
        let mut a = Vec::new();
        straight.accumulator().write_to(&mut a).unwrap();
        let mut b = Vec::new();
        resumed.accumulator().write_to(&mut b).unwrap();
        assert_eq!(a, b);

        // Each save replaced the one checkpoint file in place.
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            files,
            ["stream.state"],
            "checkpoint directory holds {files:?}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_state_rejects_bad_pointer() {
        let dir = std::env::temp_dir().join(format!("ct_online_badstate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("stream").to_str().unwrap().to_string();
        std::fs::write(format!("{prefix}.state"), "NOT A CHECKPOINT\n").unwrap();
        let err = match OnlineContraTopic::load_state(
            &prefix,
            TrainConfig::default(),
            ContraTopicConfig::default(),
        ) {
            Ok(_) => panic!("garbage state file loaded successfully"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn rejects_empty_slice() {
        let corpus = cluster_corpus(2, 8, 5);
        let emb = cluster_embeddings(&corpus);
        let (base, cfg) = config();
        let mut online = OnlineContraTopic::new(corpus.vocab_size(), emb, base, cfg);
        online.fit_slice(&corpus.subset(&[]));
    }
}
