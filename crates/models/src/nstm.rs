//! NSTM — Neural topic model via optimal transport (Zhao et al. 2021).
//!
//! Documents are matched to their topic proportions by minimizing an
//! entropic-regularized optimal-transport distance between the empirical
//! doc-word distribution and `theta`, with a cost matrix built from word
//! and topic embeddings. The Sinkhorn fixed-point iterations are unrolled
//! through the autodiff tape so gradients reach both the encoder and the
//! topic embeddings.

use ct_corpus::BowCorpus;
use ct_tensor::{Params, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backbone::{fit_backbone, Backbone, BackboneOut, Fitted};
use crate::common::{normalize_rows_l2, TrainConfig};
use crate::decoder::EtmDecoder;
use crate::encoder::Encoder;

/// NSTM as a pluggable backbone.
pub struct NstmBackbone {
    pub encoder: Encoder,
    pub decoder: EtmDecoder,
    /// Entropic regularization strength (Sinkhorn epsilon).
    pub epsilon: f32,
    /// Number of unrolled Sinkhorn iterations.
    pub sinkhorn_iters: usize,
}

impl NstmBackbone {
    pub fn new(
        params: &mut Params,
        vocab_size: usize,
        embeddings: Tensor,
        config: &TrainConfig,
        rng: &mut StdRng,
    ) -> Self {
        let encoder = Encoder::new(params, "nstm.enc", vocab_size, config, rng);
        // Plain Gaussian topic init, as in the original NSTM — the model
        // keeps its documented tendency toward redundant topics.
        let decoder = EtmDecoder::with_init(
            params,
            "nstm.dec",
            normalize_rows_l2(embeddings),
            config.num_topics,
            config.tau_beta,
            false,
            rng,
        );
        Self {
            encoder,
            decoder,
            epsilon: 0.07,
            sinkhorn_iters: 6,
        }
    }

    /// Cosine cost matrix `C (V, K) = 1 - rho_hat t_hat^T` with trainable
    /// topic embeddings (rho rows are already unit-norm).
    fn cost<'t>(&self, tape: &'t Tape, params: &Params) -> Var<'t> {
        let t = tape.param(params, self.decoder.topics);
        let t_norm = t.square().sum_axis1().sqrt_eps(1e-6).clamp_min(1e-6);
        let t_hat = t.div(t_norm);
        let rho = params.value_shared(self.decoder.rho);
        // (K, V) cosine similarity, transposed to a (V, K) cost.
        t_hat
            .matmul_nt_const(&rho)
            .transpose()
            .neg()
            .add_scalar(1.0)
    }

    /// Entropic OT distance between the batch of doc-word distributions
    /// `xbar` (constant) and `theta` (variable), by unrolled Sinkhorn.
    pub fn sinkhorn_distance<'t>(&self, xbar: Var<'t>, theta: Var<'t>, cost: Var<'t>) -> Var<'t> {
        let n = xbar.shape().0 as f32;
        let kernel = cost.scale(-1.0 / self.epsilon).exp(); // (V, K)
                                                            // Scaling vectors: u (n, V), v (n, K); v starts at 1.
        let mut v = theta.scale(0.0).add_scalar(1.0);
        let mut u = xbar; // placeholder; overwritten in the first iteration
        for _ in 0..self.sinkhorn_iters {
            // u = a / (K v)
            let kv = v.matmul_nt(kernel).clamp_min(1e-12); // (n, V)
            u = xbar.div(kv);
            // v = b / (K^T u)
            let ku = u.matmul(kernel).clamp_min(1e-12); // (n, K)
            v = theta.div(ku);
        }
        // <P, C> with P = diag(u) K diag(v):
        // per doc: sum_w u_w [ (K o C) v ]_w
        let kc = kernel.mul(cost); // (V, K)
        let m = v.matmul_nt(kc); // (n, V)
        u.mul(m).sum_all().scale(1.0 / n)
    }
}

impl Backbone for NstmBackbone {
    fn name(&self) -> &'static str {
        "NSTM"
    }

    fn batch_loss<'t>(
        &self,
        tape: &'t Tape,
        params: &Params,
        x: &Tensor,
        _indices: &[usize],
        rng: &mut StdRng,
    ) -> BackboneOut<'t> {
        let mut xn = x.clone();
        xn.normalize_rows_l1();
        // The unrolled Sinkhorn divides by the batch elementwise, which
        // the CSR backend does not implement: it gets a dense copy, while
        // the encoder keeps the (possibly CSR) batch.
        let xbar = tape.constant(xn.to_dense());
        // Deterministic theta = softmax(mu), as in the original NSTM.
        let (mu, _logvar) = self.encoder.posterior(tape, params, tape.constant(xn), rng);
        let theta = mu.softmax_rows(1.0);
        let cost = self.cost(tape, params);
        let ot = self.sinkhorn_distance(xbar, theta, cost);
        let beta = self.decoder.beta(tape, params);
        BackboneOut::new(ot, beta)
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

/// A fitted NSTM.
pub type Nstm = Fitted<NstmBackbone>;

/// Fit NSTM on `corpus` with frozen `embeddings`.
pub fn fit_nstm(corpus: &BowCorpus, embeddings: Tensor, config: &TrainConfig) -> Nstm {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let backbone = NstmBackbone::new(
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
    fn sinkhorn_distance_zero_when_marginals_trivial() {
        // With a single "topic" and a single word, transport cost equals
        // the only cost entry.
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let config = TrainConfig {
            num_topics: 1,
            ..TrainConfig::tiny()
        };
        let emb = Tensor::ones(1, 4);
        let bb = NstmBackbone::new(&mut params, 1, emb, &config, &mut rng);
        let tape = Tape::new();
        let xbar = tape.constant(Tensor::ones(2, 1));
        let theta = tape.constant(Tensor::ones(2, 1));
        let cost = tape.constant(Tensor::full(1, 1, 0.3));
        let d = bb.sinkhorn_distance(xbar, theta, cost).scalar_value();
        assert!((d - 0.3).abs() < 1e-4, "distance {d}");
    }

    #[test]
    fn sinkhorn_prefers_matching_transport() {
        // Two words, two topics, identity-like cost: matched marginals must
        // cost less than anti-matched ones.
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let config = TrainConfig {
            num_topics: 2,
            ..TrainConfig::tiny()
        };
        let emb = Tensor::eye(2);
        let bb = NstmBackbone::new(&mut params, 2, emb, &config, &mut rng);
        let tape = Tape::new();
        let cost = tape.constant(Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], 2, 2));
        let xbar = tape.constant(Tensor::from_vec(vec![0.9, 0.1, 0.9, 0.1], 2, 2));
        let matched = tape.constant(Tensor::from_vec(vec![0.9, 0.1, 0.9, 0.1], 2, 2));
        let anti = tape.constant(Tensor::from_vec(vec![0.1, 0.9, 0.1, 0.9], 2, 2));
        let d_match = bb.sinkhorn_distance(xbar, matched, cost).scalar_value();
        let d_anti = bb.sinkhorn_distance(xbar, anti, cost).scalar_value();
        assert!(d_match < d_anti, "matched {d_match} vs anti {d_anti}");
    }

    #[test]
    fn nstm_learns_planted_clusters() {
        let corpus = cluster_corpus(2, 12, 80);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 2,
            epochs: 60,
            batch_size: 64,
            learning_rate: 5e-3,
            ..TrainConfig::tiny()
        };
        let model = fit_nstm(&corpus, emb, &config);
        let sep = topic_separation(&model.beta(), 12);
        // With the original paper's Gaussian topic init, NSTM finds
        // structure but remains collapse-prone (the behaviour ECRTM
        // documents); demand above-chance separation, not perfection.
        assert!(sep > 0.55, "topic separation {sep}");
        assert_eq!(model.name(), "NSTM");
    }
}
