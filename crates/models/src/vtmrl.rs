//! VTMRL — neural topic model with reinforcement learning (Gui et al.
//! 2019).
//!
//! Topic coherence (NPMI on the training corpus) is used as a *reward*: each
//! batch, the model hard-samples top words per topic via Gumbel-top-k,
//! scores them with NPMI, and applies a REINFORCE update
//! `-(r_k - baseline) * sum_w log beta_kw` with a running-mean baseline.
//! The hard sampling makes the reward path non-differentiable — exactly the
//! property ContraTopic's relaxed subset sampler avoids — so gradient
//! variance is high and convergence is touchy, as the paper notes.

use std::sync::Arc;

use ct_corpus::{BowCorpus, NpmiMatrix};
use ct_tensor::{ParamId, Params, Tape, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::backbone::{fit_backbone, Backbone, BackboneOut, Fitted};
use crate::common::TrainConfig;
use crate::encoder::Encoder;
use crate::etm::EtmBackbone;

/// Draw the indices of the top-`v` Gumbel-perturbed log-probabilities —
/// i.e. `v` samples without replacement from the categorical `probs`.
pub fn gumbel_top_k<R: Rng>(probs: &[f32], v: usize, rng: &mut R) -> Vec<usize> {
    let mut keys: Vec<(f32, usize)> = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let u: f32 = rng.gen::<f32>().max(1e-20);
            let g = -(-u.ln()).ln();
            (p.max(1e-20).ln() + g, i)
        })
        .collect();
    let v = v.min(keys.len());
    keys.select_nth_unstable_by(v.saturating_sub(1), |a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal)
    });
    keys.truncate(v);
    keys.into_iter().map(|(_, i)| i).collect()
}

/// VTMRL: ETM backbone + NPMI-reward REINFORCE term.
pub struct VtmrlBackbone {
    pub inner: EtmBackbone,
    /// Precomputed NPMI on the training corpus (the reward oracle).
    pub npmi: Arc<NpmiMatrix>,
    /// Words sampled per topic for the reward.
    pub sample_words: usize,
    /// Weight of the RL term.
    pub rl_weight: f32,
    /// Running-mean reward baseline (variance reduction): a frozen 1×1
    /// `vtmrl.baseline` entry, EMA-updated from the tape like batch-norm
    /// statistics.
    pub baseline: ParamId,
}

impl VtmrlBackbone {
    pub fn new(
        params: &mut Params,
        vocab_size: usize,
        embeddings: Tensor,
        npmi: Arc<NpmiMatrix>,
        config: &TrainConfig,
        rng: &mut StdRng,
    ) -> Self {
        let inner = EtmBackbone::new(params, vocab_size, embeddings, config, rng);
        let baseline = params.add_frozen("vtmrl.baseline", Tensor::scalar(0.0));
        Self {
            inner,
            npmi,
            sample_words: 10,
            rl_weight: 10.0,
            baseline,
        }
    }
}

impl Backbone for VtmrlBackbone {
    fn name(&self) -> &'static str {
        "VTMRL"
    }

    fn batch_loss<'t>(
        &self,
        tape: &'t Tape,
        params: &Params,
        x: &Tensor,
        _indices: &[usize],
        rng: &mut StdRng,
    ) -> BackboneOut<'t> {
        let e = self.inner.elbo(tape, params, x, rng);
        let (elbo, kl, beta) = (e.loss, e.kl, e.beta);
        let beta_val = beta.value();
        let (k, v) = beta_val.shape();

        // Hard-sample words per topic, score with NPMI, build the
        // REINFORCE mask and advantage.
        let mut mask = Tensor::zeros(k, v);
        let mut advantages = Tensor::zeros(k, 1);
        let mut mean_reward = 0.0f32;
        let baseline = params.value(self.baseline).data()[0];
        for t in 0..k {
            let sampled = gumbel_top_k(beta_val.row(t), self.sample_words, rng);
            let reward = self.npmi.mean_pairwise(&sampled) as f32;
            mean_reward += reward / k as f32;
            advantages.set(t, 0, reward - baseline);
            for w in sampled {
                mask.set(t, w, 1.0);
            }
        }
        // Update the running baseline (no gradient): `0.9·b + 0.1·r`,
        // applied by the training driver in a fixed order.
        tape.record_ema(self.baseline, 0.1, Arc::new(Tensor::scalar(mean_reward)));
        // REINFORCE surrogate: -(adv_k) * sum_{w in S_k} log beta_kw.
        let mask = Arc::new(mask);
        let adv = Arc::new(advantages);
        let rl = beta
            .ln_clamped(1e-10)
            .mul_const(&mask)
            .mul_const(&adv) // column-broadcast over the K rows
            .sum_all()
            .scale(-self.rl_weight / k as f32);
        BackboneOut::new(elbo.add(rl), beta).with_kl(kl)
    }

    fn beta_var<'t>(&self, tape: &'t Tape, params: &Params) -> ct_tensor::Var<'t> {
        self.inner.beta_var(tape, params)
    }

    fn encoder(&self) -> &Encoder {
        self.inner.encoder()
    }

    fn beta_tensor(&self, params: &Params) -> Tensor {
        self.inner.beta_tensor(params)
    }

    fn num_topics(&self) -> usize {
        self.inner.num_topics()
    }
}

/// A fitted VTMRL.
pub type Vtmrl = Fitted<VtmrlBackbone>;

/// Fit VTMRL on `corpus`; `npmi` must be computed from the *training*
/// corpus (the reward oracle the original paper uses).
pub fn fit_vtmrl(
    corpus: &BowCorpus,
    embeddings: Tensor,
    npmi: Arc<NpmiMatrix>,
    config: &TrainConfig,
) -> Vtmrl {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let backbone = VtmrlBackbone::new(
        &mut params,
        corpus.vocab_size(),
        embeddings,
        npmi,
        config,
        &mut rng,
    );
    fit_backbone(backbone, params, corpus, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::TopicModel;
    use crate::testutil::{cluster_corpus, cluster_embeddings, topic_separation};

    #[test]
    fn gumbel_top_k_returns_distinct_indices() {
        let mut rng = StdRng::seed_from_u64(1);
        let probs = vec![0.1, 0.4, 0.2, 0.2, 0.1];
        let s = gumbel_top_k(&probs, 3, &mut rng);
        assert_eq!(s.len(), 3);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn gumbel_top_k_biased_toward_high_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let probs = vec![0.75, 0.05, 0.05, 0.05, 0.05, 0.05];
        let mut hits = 0;
        for _ in 0..400 {
            if gumbel_top_k(&probs, 1, &mut rng)[0] == 0 {
                hits += 1;
            }
        }
        let rate = hits as f64 / 400.0;
        assert!((rate - 0.75).abs() < 0.08, "rate {rate}");
    }

    #[test]
    fn gumbel_top_k_caps_at_len() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = gumbel_top_k(&[0.5, 0.5], 10, &mut rng);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn vtmrl_learns_planted_clusters() {
        let corpus = cluster_corpus(2, 12, 80);
        let emb = cluster_embeddings(&corpus);
        let npmi = Arc::new(NpmiMatrix::from_corpus(&corpus));
        let config = TrainConfig {
            num_topics: 2,
            epochs: 60,
            batch_size: 64,
            learning_rate: 5e-3,
            ..TrainConfig::tiny()
        };
        let model = fit_vtmrl(&corpus, emb, npmi, &config);
        let sep = topic_separation(&model.beta(), 12);
        assert!(sep > 0.7, "topic separation {sep}");
        assert_eq!(model.name(), "VTMRL");
    }
}
