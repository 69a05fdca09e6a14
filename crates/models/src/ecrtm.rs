//! ECRTM — effective neural topic modeling with embedding clustering
//! regularization (Wu et al., ICML 2023), the most recent related work the
//! paper discusses.
//!
//! ECRTM forces each topic embedding to be the center of a distinct
//! cluster of word embeddings, directly attacking the topic-embedding
//! *collapse* that plain ETM/NSTM suffer (see `DESIGN.md` §5b.3 — collapse
//! is very visible on this workspace's corpora too). Here the paper's
//! optimal-transport formulation is implemented as its entropic soft
//! assignment: words are softly assigned to their nearest topic embedding
//! and the expected squared distance is minimized, which pulls topic
//! embeddings onto distinct word clusters.

use ct_corpus::BowCorpus;
use ct_tensor::{Params, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backbone::{fit_backbone, Backbone, BackboneOut, Fitted};
use crate::common::TrainConfig;
use crate::encoder::Encoder;
use crate::etm::EtmBackbone;

/// ECRTM: ETM backbone + embedding clustering regularization.
pub struct EcrtmBackbone {
    pub inner: EtmBackbone,
    /// Weight of the clustering term.
    pub ecr_weight: f32,
    /// Softmax temperature of the word -> topic assignment.
    pub assign_tau: f32,
}

impl EcrtmBackbone {
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
            ecr_weight: 20.0,
            assign_tau: 0.2,
        }
    }

    /// The clustering term: soft-assign every word embedding to a topic
    /// embedding and minimize the expected squared distance.
    pub fn ecr_loss<'t>(&self, tape: &'t Tape, params: &Params) -> Var<'t> {
        let t = tape.param(params, self.inner.decoder.topics); // (K, e)
        let rho = params.value_shared(self.inner.decoder.rho); // (V, e) const
        let v = rho.rows() as f32;
        // Squared distances D (V, K) = |rho|^2 + |t|^2 - 2 rho t^T.
        let rho_sq = std::sync::Arc::new(Tensor::col_vector(
            (0..rho.rows())
                .map(|r| rho.row(r).iter().map(|&x| x * x).sum::<f32>())
                .collect(),
        )); // (V, 1) const
        let t_sq = t.square().sum_axis1(); // (K, 1)
        let cross = t.matmul_nt_const(&rho).transpose(); // (V, K)
        let d = cross
            .scale(-2.0)
            .add(t_sq.transpose()) // broadcast (1, K)
            .add_const(&rho_sq) // broadcast (V, 1)
            .clamp_min(0.0);
        // Entropic soft assignment of words to topics.
        let q = d.scale(-1.0 / self.assign_tau).softmax_rows(1.0); // (V, K)
        q.mul(d).sum_all().scale(1.0 / v)
    }
}

impl Backbone for EcrtmBackbone {
    fn name(&self) -> &'static str {
        "ECRTM"
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
        let ecr = self.ecr_loss(tape, params);
        BackboneOut::new(e.loss.add(ecr.scale(self.ecr_weight)), e.beta).with_kl(e.kl)
    }

    fn beta_var<'t>(&self, tape: &'t Tape, params: &Params) -> Var<'t> {
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

/// A fitted ECRTM.
pub type Ecrtm = Fitted<EcrtmBackbone>;

/// Fit ECRTM on `corpus` with frozen `embeddings`.
pub fn fit_ecrtm(corpus: &BowCorpus, embeddings: Tensor, config: &TrainConfig) -> Ecrtm {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let backbone = EcrtmBackbone::new(
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
    fn ecr_loss_lower_when_topics_sit_on_words() {
        let corpus = cluster_corpus(2, 8, 20);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 2,
            ..TrainConfig::tiny()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let bb = EcrtmBackbone::new(
            &mut params,
            corpus.vocab_size(),
            emb.clone(),
            &config,
            &mut rng,
        );
        // Place topic embeddings exactly on two word embeddings -> small
        // distance to those clusters.
        let tid = bb.inner.decoder.topics;
        let mut good = Tensor::zeros(2, emb.cols());
        good.row_mut(0)
            .copy_from_slice(crate::common::normalize_rows_l2(emb.clone()).row(0));
        good.row_mut(1)
            .copy_from_slice(crate::common::normalize_rows_l2(emb.clone()).row(12));
        *params.value_mut(tid) = good;
        let tape = Tape::new();
        let on_words = bb.ecr_loss(&tape, &params).scalar_value();
        // Far-away topic embeddings -> large distances.
        *params.value_mut(tid) = Tensor::full(2, emb.cols(), 10.0);
        let tape = Tape::new();
        let far = bb.ecr_loss(&tape, &params).scalar_value();
        assert!(on_words < far, "on-words {on_words} should beat far {far}");
    }

    #[test]
    fn ecrtm_learns_planted_clusters() {
        let corpus = cluster_corpus(2, 12, 80);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 2,
            epochs: 60,
            batch_size: 64,
            learning_rate: 5e-3,
            ..TrainConfig::tiny()
        };
        let model = fit_ecrtm(&corpus, emb, &config);
        let sep = topic_separation(&model.beta(), 12);
        assert!(sep > 0.75, "topic separation {sep}");
        assert_eq!(model.name(), "ECRTM");
    }

    #[test]
    fn ecrtm_shapes() {
        let corpus = cluster_corpus(2, 8, 20);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 4,
            epochs: 2,
            ..TrainConfig::tiny()
        };
        let model = fit_ecrtm(&corpus, emb, &config);
        assert_eq!(model.beta().shape(), (4, 16));
        assert_eq!(model.theta(&corpus).shape(), (40, 4));
    }
}
