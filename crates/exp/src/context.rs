//! Shared per-dataset experiment state and model fitting entry points.
//!
//! [`ExperimentContext`] (moved here from `ct-bench`, which re-exports it)
//! holds everything one dataset's trials share: the generated corpus and
//! split, the train/test NPMI matrices, and the degraded embeddings. The
//! [`ContextCache`] memoizes contexts by their identity inputs so a
//! multi-experiment schedule builds each dataset once.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use contratopic::{
    fit_contratopic, fit_contratopic_wete, fit_contratopic_wlda, ContraTopicConfig,
    SubsetSamplerConfig,
};
use ct_corpus::embed::embeddings_from_matrix;
use ct_corpus::npmi::CoocAccumulator;
use ct_corpus::{generate, BowCorpus, DatasetPreset, NpmiMatrix, Scale};
use ct_eval::{diversity_at, kmeans, nmi, purity, TopicScores, K_TC, K_TD, PERCENTAGES};
use ct_models::{
    fit_clntm, fit_etm, fit_nstm, fit_ntmr, fit_prodlda, fit_vtmrl, fit_wete, fit_wlda, Lda,
    LdaConfig, TopicModel, TrainConfig,
};
use ct_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::{CtParams, ModelKind, TrialSpec};

/// Everything an experiment needs for one dataset, computed once.
pub struct ExperimentContext {
    /// Which preset generated this context.
    pub preset: DatasetPreset,
    /// Experiment scale the corpus was generated at.
    pub scale: Scale,
    /// Training split.
    pub train: BowCorpus,
    /// Held-out test split.
    pub test: BowCorpus,
    /// NPMI on the training set — the regularizer kernel / reward oracle.
    pub npmi_train: Arc<NpmiMatrix>,
    /// NPMI on the held-out test set — the evaluation reference (§V-D:
    /// "we evaluate the topic coherence on the unseen test data").
    pub npmi_test: Arc<NpmiMatrix>,
    /// PPMI-factorisation embeddings (GloVe stand-in), trained on train.
    pub embeddings: Tensor,
}

impl ExperimentContext {
    /// Generate the synthetic dataset for `preset` and compute its shared
    /// statistics. `data_seed` fixes the corpus across model seeds; the
    /// embedding noise level comes from `CT_EMB_NOISE` (see
    /// [`embedding_noise`]).
    pub fn build(preset: DatasetPreset, scale: Scale, data_seed: u64) -> Self {
        Self::build_with_noise(preset, scale, data_seed, embedding_noise())
    }

    /// [`ExperimentContext::build`] with the embedding noise level passed
    /// explicitly (trial specs pin it so cached results stay valid when
    /// the environment changes).
    pub fn build_with_noise(
        preset: DatasetPreset,
        scale: Scale,
        data_seed: u64,
        emb_noise: f32,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(data_seed);
        let synth = generate(&preset.spec(scale), &mut rng);
        let (train, test) = synth.corpus.split(preset.train_frac(), &mut rng);
        let embed_dim = match scale {
            Scale::Tiny => 32,
            _ => 64,
        };
        // One co-occurrence count of the training split gives both the
        // PPMI the embeddings factorise and the split's NPMI.
        let mut cooc = CoocAccumulator::new(train.vocab_size());
        cooc.add_corpus(&train);
        let ppmi = Tensor::from_csr(cooc.to_ppmi());
        let embeddings = embeddings_from_matrix(&ppmi, embed_dim, &mut rng);
        drop(ppmi);
        // Simulate out-of-domain pretrained GloVe: the paper's embeddings
        // come from Wikipedia, not the evaluation corpus (see
        // ct_corpus::embed::degrade_embeddings).
        let embeddings = ct_corpus::degrade_embeddings(embeddings, emb_noise, &mut rng);
        let npmi_train = Arc::new(cooc.to_npmi());
        drop(cooc);
        Self {
            preset,
            scale,
            npmi_train,
            npmi_test: Arc::new(NpmiMatrix::from_corpus(&test)),
            train,
            test,
            embeddings,
        }
    }

    /// The shared training configuration at this scale.
    pub fn train_config(&self, seed: u64) -> TrainConfig {
        match self.scale {
            Scale::Tiny => TrainConfig {
                num_topics: 12,
                hidden: 48,
                epochs: 8,
                batch_size: 128,
                learning_rate: 5e-3,
                embed_dim: 32,
                ..TrainConfig::default()
            },
            Scale::Quick => TrainConfig {
                num_topics: 40,
                hidden: 128,
                epochs: 30,
                batch_size: 512,
                learning_rate: 3e-3,
                ..TrainConfig::default()
            },
            Scale::Full => TrainConfig {
                num_topics: 60,
                hidden: 256,
                epochs: 40,
                batch_size: 512,
                learning_rate: 2e-3,
                ..TrainConfig::default()
            },
        }
        .with_seed(seed)
    }

    /// The paper's dataset-dependent lambda; see [`crate::spec::default_lambda`].
    pub fn default_lambda(&self) -> f32 {
        crate::spec::default_lambda(self.preset)
    }

    /// Default ContraTopic configuration for this dataset.
    pub fn contratopic_config(&self) -> ContraTopicConfig {
        ContraTopicConfig {
            lambda: self.default_lambda(),
            sampler: SubsetSamplerConfig { v: 10, tau_g: 0.5 },
            variant: contratopic::AblationVariant::Full,
        }
    }
}

impl ModelKind {
    /// Train this model on the context's training split with the shared
    /// experiment defaults (ContraTopic-family models use the preset's
    /// default regularizer settings).
    pub fn fit(self, ctx: &ExperimentContext, seed: u64) -> Box<dyn TopicModel> {
        let spec = TrialSpec {
            model: self,
            preset: ctx.preset,
            scale: ctx.scale,
            data_seed: 0, // unused by fit_trial
            emb_noise: 0.0,
            seed,
            epochs: None,
            ct: self
                .is_contratopic_family()
                .then(|| CtParams::preset_default(ctx.preset)),
        };
        fit_trial(&spec, ctx)
    }
}

/// Train the model a spec describes on `ctx` (which must have been built
/// from the spec's preset/scale/data_seed/emb_noise). This is the single
/// fitting entry point the scheduler runs; everything it does is a pure
/// function of the spec and the context.
pub fn fit_trial(spec: &TrialSpec, ctx: &ExperimentContext) -> Box<dyn TopicModel> {
    let mut config = ctx.train_config(spec.seed);
    if let Some(epochs) = spec.epochs {
        config.epochs = epochs;
    }
    // Free-logit decoders (a K x V parameter) need a larger step size
    // than the embedding decoders to converge in the same budget —
    // the "best reported settings" treatment of §V-C.
    if matches!(
        spec.model,
        ModelKind::ProdLda | ModelKind::Wlda | ModelKind::ContraTopicWlda
    ) {
        config.learning_rate *= 5.0;
        config.epochs *= 2;
    }
    let emb = ctx.embeddings.clone();
    let ct_config = spec.ct.map(CtParams::to_config);
    let ct_config = || {
        ct_config
            .clone()
            .expect("ContraTopic-family spec missing ct params")
    };
    match spec.model {
        ModelKind::Lda => Box::new(Lda::fit(
            &ctx.train,
            LdaConfig {
                num_topics: config.num_topics,
                iterations: config.epochs * 4,
                seed: spec.seed,
                ..Default::default()
            },
        )),
        ModelKind::ProdLda => Box::new(fit_prodlda(&ctx.train, &config)),
        ModelKind::Wlda => Box::new(fit_wlda(&ctx.train, &config)),
        ModelKind::Etm => Box::new(fit_etm(&ctx.train, emb, &config)),
        ModelKind::Nstm => Box::new(fit_nstm(&ctx.train, emb, &config)),
        ModelKind::WeTe => Box::new(fit_wete(&ctx.train, emb, &config)),
        ModelKind::NtmR => Box::new(fit_ntmr(&ctx.train, emb, &config)),
        ModelKind::Vtmrl => Box::new(fit_vtmrl(&ctx.train, emb, ctx.npmi_train.clone(), &config)),
        ModelKind::Clntm => Box::new(fit_clntm(&ctx.train, emb, &config)),
        ModelKind::ContraTopic => Box::new(fit_contratopic(
            &ctx.train,
            emb,
            &ctx.npmi_train,
            &config,
            &ct_config(),
        )),
        ModelKind::ContraTopicWlda => Box::new(fit_contratopic_wlda(
            &ctx.train,
            &ctx.embeddings,
            &ctx.npmi_train,
            &config,
            &ct_config(),
        )),
        ModelKind::ContraTopicWete => Box::new(fit_contratopic_wete(
            &ctx.train,
            emb,
            &ctx.npmi_train,
            &config,
            &ct_config(),
        )),
    }
}

/// A dataset's identity inputs: preset, scale, data seed and the noise
/// level's bit pattern (bits so the key is `Eq + Hash`).
type ContextKey = (DatasetPreset, Scale, u64, u32);

/// Memoizes [`ExperimentContext`]s by their identity inputs so a schedule
/// spanning several experiments builds each dataset exactly once, even
/// with concurrent trials.
#[derive(Default)]
pub struct ContextCache {
    map: Mutex<HashMap<ContextKey, Arc<ExperimentContext>>>,
}

impl ContextCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The context for a spec's dataset, building it on first use. The
    /// cache lock is *not* held during the build (contexts at quick scale
    /// take seconds); two threads racing on the same key build twice and
    /// the first insert wins — wasteful but correct, and the scheduler
    /// pre-warms contexts serially to avoid it.
    pub fn get(&self, spec: &TrialSpec) -> Arc<ExperimentContext> {
        let key = (
            spec.preset,
            spec.scale,
            spec.data_seed,
            spec.emb_noise.to_bits(),
        );
        if let Some(ctx) = self.map.lock().unwrap().get(&key) {
            return Arc::clone(ctx);
        }
        let built = Arc::new(ExperimentContext::build_with_noise(
            spec.preset,
            spec.scale,
            spec.data_seed,
            spec.emb_noise,
        ));
        let mut map = self.map.lock().unwrap();
        Arc::clone(map.entry(key).or_insert(built))
    }
}

/// Interpretability evaluation of one fitted model (Figure 2's two rows).
pub struct InterpretabilityResult {
    /// Mean NPMI over the selected topics, at each of [`PERCENTAGES`].
    pub coherence: Vec<f64>,
    /// Unique fraction of top-25 words, at each of [`PERCENTAGES`].
    pub diversity: Vec<f64>,
}

/// Coherence and diversity curves against the *test* NPMI reference.
pub fn evaluate_interpretability(beta: &Tensor, npmi_test: &NpmiMatrix) -> InterpretabilityResult {
    let scores = TopicScores::compute(beta, npmi_test, K_TC);
    let coherence = PERCENTAGES
        .iter()
        .map(|&p| scores.coherence_at(p))
        .collect();
    let diversity = PERCENTAGES
        .iter()
        .map(|&p| diversity_at(beta, &scores, p, K_TD))
        .collect();
    InterpretabilityResult {
        coherence,
        diversity,
    }
}

/// km-Purity and km-NMI at one cluster count (Figure 3 points).
pub fn evaluate_clustering(
    theta_test: &Tensor,
    labels: &[usize],
    clusters: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let res = kmeans(theta_test, clusters, 60, &mut rng);
    (
        purity(&res.assignments, labels),
        nmi(&res.assignments, labels),
    )
}

/// Cluster counts for Figure 3, scaled from the paper's {20,40,60,80,100}.
pub fn cluster_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Tiny => vec![4, 8, 12],
        _ => vec![10, 20, 30, 40, 50],
    }
}

/// Out-of-domain embedding noise level (`CT_EMB_NOISE`, default 0.3).
pub fn embedding_noise() -> f32 {
    std::env::var("CT_EMB_NOISE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.3)
}

/// Number of seeds per configuration (`CT_SEEDS`, default 2).
pub fn num_seeds() -> usize {
    num_seeds_or(2)
}

/// `CT_SEEDS` with a caller-chosen default, for harnesses whose natural
/// seed count differs (e.g. the single-seed case study).
pub fn num_seeds_or(default: usize) -> usize {
    std::env::var("CT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_at_tiny_scale() {
        let ctx = ExperimentContext::build(DatasetPreset::Ng20Like, Scale::Tiny, 1);
        assert!(ctx.train.num_docs() > 0);
        assert!(ctx.test.num_docs() > 0);
        assert_eq!(ctx.train.vocab_size(), ctx.test.vocab_size());
        assert_eq!(ctx.embeddings.rows(), ctx.train.vocab_size());
        assert!(ctx.train.labels.is_some());
    }

    #[test]
    fn cache_reuses_contexts() {
        let cache = ContextCache::new();
        let spec = TrialSpec::baseline(ModelKind::Etm, DatasetPreset::Ng20Like, Scale::Tiny, 42);
        let a = cache.get(&spec);
        let mut other_seed = spec.clone();
        other_seed.seed = 43;
        let b = cache.get(&other_seed);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same dataset inputs must share a context"
        );
        let mut other_noise = spec.clone();
        other_noise.emb_noise = 0.9;
        let c = cache.get(&other_noise);
        assert!(!Arc::ptr_eq(&a, &c), "noise level is part of the identity");
    }

    #[test]
    fn cluster_counts_scale() {
        assert_eq!(cluster_counts(Scale::Tiny).len(), 3);
        assert_eq!(cluster_counts(Scale::Quick), vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn default_lambda_larger_for_nytimes() {
        assert!(
            crate::spec::default_lambda(DatasetPreset::NyTimesLike)
                > crate::spec::default_lambda(DatasetPreset::Ng20Like)
        );
    }

    #[test]
    fn interpretability_curves_have_ten_points() {
        let ctx = ExperimentContext::build(DatasetPreset::Ng20Like, Scale::Tiny, 2);
        let beta = Tensor::full(
            4,
            ctx.train.vocab_size(),
            1.0 / ctx.train.vocab_size() as f32,
        );
        let r = evaluate_interpretability(&beta, &ctx.npmi_test);
        assert_eq!(r.coherence.len(), 10);
        assert_eq!(r.diversity.len(), 10);
    }
}
