//! ProdLDA (Srivastava & Sutton 2017): autoencoding variational inference
//! with a product-of-experts decoder — `p(w|theta) =
//! softmax(theta @ beta_logits)` with unnormalized per-topic logits.

use std::sync::Arc;

use ct_corpus::BowCorpus;
use ct_tensor::{Params, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ct_tensor::BatchNorm1d;

use crate::backbone::{fit_backbone, Backbone, BackboneOut, Fitted};
use crate::common::TrainConfig;
use crate::decoder::FreeDecoder;
use crate::encoder::Encoder;

/// ProdLDA as a pluggable backbone.
pub struct ProdLdaBackbone {
    pub encoder: Encoder,
    pub decoder: FreeDecoder,
    /// Batch norm over the mixed decoder logits — present in the reference
    /// AVITM implementation and essential against component collapse.
    pub decoder_bn: BatchNorm1d,
}

impl ProdLdaBackbone {
    pub fn new(
        params: &mut Params,
        vocab_size: usize,
        config: &TrainConfig,
        rng: &mut StdRng,
    ) -> Self {
        let encoder = Encoder::new(params, "prodlda.enc", vocab_size, config, rng);
        let decoder = FreeDecoder::new(params, "prodlda.dec", config.num_topics, vocab_size, rng);
        let decoder_bn = BatchNorm1d::new(params, "prodlda.dec_bn", vocab_size);
        Self {
            encoder,
            decoder,
            decoder_bn,
        }
    }
}

impl Backbone for ProdLdaBackbone {
    fn name(&self) -> &'static str {
        "ProdLDA"
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
        let xn = tape.constant(xn);
        let (theta, kl) = self.encoder.encode(tape, params, xn, rng);
        // Product of experts: mix logits, batch-normalize (reference AVITM
        // detail that prevents component collapse), then one softmax.
        let logits = self.decoder.logits_var(tape, params);
        let mixed = self.decoder_bn.forward(tape, params, theta.matmul(logits));
        let log_p = mixed.log_softmax_rows(1.0);
        let x_rc = Arc::new(x.clone());
        let recon = log_p.mul_const(&x_rc).sum_all().scale(-1.0 / n);
        let beta = self.decoder.beta(tape, params);
        BackboneOut::new(recon.add(kl), beta).with_kl(kl)
    }

    fn beta_var<'t>(&self, tape: &'t Tape, params: &Params) -> ct_tensor::Var<'t> {
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

/// A fitted ProdLDA.
pub type ProdLda = Fitted<ProdLdaBackbone>;

/// Fit ProdLDA on `corpus`.
pub fn fit_prodlda(corpus: &BowCorpus, config: &TrainConfig) -> ProdLda {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let backbone = ProdLdaBackbone::new(&mut params, corpus.vocab_size(), config, &mut rng);
    fit_backbone(backbone, params, corpus, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::TopicModel;
    use crate::testutil::{cluster_corpus, topic_separation};

    #[test]
    fn prodlda_learns_planted_clusters() {
        let corpus = cluster_corpus(2, 12, 80);
        let config = TrainConfig {
            num_topics: 2,
            epochs: 150,
            batch_size: 64,
            learning_rate: 1e-2,
            ..TrainConfig::tiny()
        };
        let model = fit_prodlda(&corpus, &config);
        let sep = topic_separation(&model.beta(), 12);
        // ProdLDA with the reference decoder batch-norm avoids component
        // collapse but is a weak-coherence baseline (as in the paper);
        // demand clear above-chance structure rather than perfection.
        assert!(sep > 0.55, "topic separation {sep}");
    }

    #[test]
    fn prodlda_shapes() {
        let corpus = cluster_corpus(2, 8, 20);
        let config = TrainConfig {
            num_topics: 4,
            epochs: 2,
            ..TrainConfig::tiny()
        };
        let model = fit_prodlda(&corpus, &config);
        assert_eq!(model.beta().shape(), (4, 16));
        assert_eq!(model.theta(&corpus).shape(), (40, 4));
        assert_eq!(model.name(), "ProdLDA");
    }
}
