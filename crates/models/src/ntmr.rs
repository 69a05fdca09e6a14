//! NTM-R — coherence-aware neural topic modeling (Ding et al. 2018).
//!
//! Adds a differentiable topic-coherence surrogate to the ELBO: each topic's
//! centroid in word-embedding space should be close (cosine) to the words
//! the topic weights highly. This is the baseline whose kernel ContraTopic's
//! `ContraTopic-I` ablation mirrors — it regularizes with embedding inner
//! products rather than corpus NPMI, and only targets coherence, not
//! diversity.

use ct_corpus::BowCorpus;
use ct_tensor::{Params, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backbone::{fit_backbone, Backbone, BackboneOut, Fitted};
use crate::common::TrainConfig;
use crate::encoder::Encoder;
use crate::etm::EtmBackbone;

/// NTM-R: ETM backbone + embedding-based coherence regularizer.
pub struct NtmRBackbone {
    pub inner: EtmBackbone,
    /// Weight of the coherence term.
    pub coherence_weight: f32,
}

impl NtmRBackbone {
    pub fn new(
        params: &mut Params,
        vocab_size: usize,
        embeddings: Tensor,
        config: &TrainConfig,
        rng: &mut StdRng,
    ) -> Self {
        let inner = EtmBackbone::new(params, vocab_size, embeddings, config, rng);
        Self {
            inner,
            coherence_weight: 10.0,
        }
    }
}

impl Backbone for NtmRBackbone {
    fn name(&self) -> &'static str {
        "NTM-R"
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
        // Coherence surrogate: topic centroid s_k = beta_k @ rho_hat;
        // reward = sum_k sum_w beta_kw * cos(rho_w, s_k). Maximizing pulls
        // each topic's mass onto words near its own centroid.
        let rho = params.value_shared(self.inner.decoder.rho); // rows unit-norm
        let centroid = beta.matmul_const(&rho); // (K, e)
        let c_norm = centroid.square().sum_axis1().sqrt_eps(1e-6).clamp_min(1e-6);
        let c_hat = centroid.div(c_norm);
        let sim = c_hat.matmul_nt_const(&rho); // (K, V) cosine
        let k = beta.shape().0 as f32;
        let coherence = beta.mul(sim).sum_all().scale(1.0 / k);
        let loss = elbo.sub(coherence.scale(self.coherence_weight));
        BackboneOut::new(loss, beta).with_kl(kl)
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

/// A fitted NTM-R.
pub type NtmR = Fitted<NtmRBackbone>;

/// Fit NTM-R on `corpus` with frozen `embeddings`.
pub fn fit_ntmr(corpus: &BowCorpus, embeddings: Tensor, config: &TrainConfig) -> NtmR {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let backbone = NtmRBackbone::new(
        &mut params,
        corpus.vocab_size(),
        embeddings,
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
    fn ntmr_learns_planted_clusters() {
        let corpus = cluster_corpus(2, 12, 80);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 2,
            epochs: 60,
            batch_size: 64,
            learning_rate: 5e-3,
            ..TrainConfig::tiny()
        };
        let model = fit_ntmr(&corpus, emb, &config);
        let sep = topic_separation(&model.beta(), 12);
        assert!(sep > 0.75, "topic separation {sep}");
        assert_eq!(model.name(), "NTM-R");
    }

    #[test]
    fn coherence_term_concentrates_topics() {
        // With the regularizer, the entropy of beta rows should drop
        // relative to plain ETM under identical small budgets.
        let corpus = cluster_corpus(3, 8, 40);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 3,
            epochs: 20,
            batch_size: 64,
            learning_rate: 5e-3,
            ..TrainConfig::tiny()
        };
        let ntmr = fit_ntmr(&corpus, emb.clone(), &config);
        let etm = crate::etm::fit_etm(&corpus, emb, &config);
        let entropy = |beta: &Tensor| -> f64 {
            let mut h = 0.0f64;
            for t in 0..beta.rows() {
                for &p in beta.row(t) {
                    if p > 1e-12 {
                        h -= (p as f64) * (p as f64).ln();
                    }
                }
            }
            h / beta.rows() as f64
        };
        let (hn, he) = (entropy(&ntmr.beta()), entropy(&etm.beta()));
        assert!(hn <= he + 0.05, "NTM-R entropy {hn} vs ETM {he}");
    }
}
