//! CLNTM — contrastive learning for neural topic models (Nguyen & Luu
//! 2021).
//!
//! The *document-wise* contrastive baseline the paper contrasts against:
//! for every document, a positive view keeps its salient (high tf-idf)
//! words and a negative view destroys them, and an InfoNCE-style term pulls
//! the document encoding toward its positive and away from its negative.
//! Topic-word quality is only improved *implicitly* — the key difference
//! from ContraTopic's topic-wise regularizer.

use ct_corpus::BowCorpus;
use ct_tensor::{Params, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::backbone::{fit_backbone, Backbone, BackboneOut, Fitted};
use crate::common::TrainConfig;
use crate::encoder::Encoder;
use crate::etm::EtmBackbone;

/// Per-document tf-idf-ranked term list: `(word id, count)` sorted by
/// tf-idf descending.
type RankedDoc = Vec<(u32, f32)>;

/// CLNTM: ETM backbone + document-wise contrastive term.
pub struct ClntmBackbone {
    pub inner: EtmBackbone,
    /// tf-idf-ranked terms per training document.
    ranked: Vec<RankedDoc>,
    /// Corpus word frequencies for negative-view replacement sampling.
    word_freq: Vec<f64>,
    /// Weight of the contrastive term.
    pub contrast_weight: f32,
    /// InfoNCE temperature.
    pub temperature: f32,
    /// Fraction of salient words perturbed in the negative view.
    pub salient_frac: f32,
}

impl ClntmBackbone {
    pub fn new(
        params: &mut Params,
        corpus: &BowCorpus,
        embeddings: Tensor,
        config: &TrainConfig,
        rng: &mut StdRng,
    ) -> Self {
        let inner = EtmBackbone::new(params, corpus.vocab_size(), embeddings, config, rng);
        let df = corpus.doc_frequencies();
        let ranked = (0..corpus.num_docs())
            .map(|d| {
                let mut w = corpus.tfidf_doc(d, &df);
                w.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                let counts: std::collections::HashMap<u32, f32> = corpus.docs[d].iter().collect();
                w.into_iter()
                    .map(|(id, _)| (id, counts[&id]))
                    .collect::<RankedDoc>()
            })
            .collect();
        Self {
            inner,
            ranked,
            word_freq: corpus.word_counts(),
            contrast_weight: 1.0,
            temperature: 0.5,
            salient_frac: 0.3,
        }
    }

    /// Build positive and negative views for a batch of documents.
    fn augment(&self, indices: &[usize], v: usize, rng: &mut StdRng) -> (Tensor, Tensor) {
        let mut pos = Tensor::zeros(indices.len(), v);
        let mut neg = Tensor::zeros(indices.len(), v);
        for (r, &d) in indices.iter().enumerate() {
            let ranked = &self.ranked[d];
            let n_salient = ((ranked.len() as f32) * self.salient_frac).ceil() as usize;
            let n_salient = n_salient.clamp(1, ranked.len());
            // Positive: keep the salient half (tf-idf head) of the doc.
            let keep = (ranked.len() / 2).max(n_salient);
            for &(id, c) in &ranked[..keep] {
                pos.set(r, id as usize, c);
            }
            // Negative: the full doc, but the salient words are replaced by
            // frequency-sampled random words.
            for &(id, c) in &ranked[n_salient..] {
                neg.set(r, id as usize, c);
            }
            for &(_, c) in &ranked[..n_salient] {
                let repl = sample_by_freq(&self.word_freq, rng);
                let cur = neg.get(r, repl);
                neg.set(r, repl, cur + c);
            }
        }
        (pos, neg)
    }

    /// L2-normalize rows of a variable.
    fn normalize_rows<'t>(h: Var<'t>) -> Var<'t> {
        let n = h.square().sum_axis1().sqrt_eps(1e-6).clamp_min(1e-6);
        h.div(n)
    }
}

fn sample_by_freq<R: Rng>(freq: &[f64], rng: &mut R) -> usize {
    let total: f64 = freq.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, &f) in freq.iter().enumerate() {
        if u < f {
            return i;
        }
        u -= f;
    }
    freq.len() - 1
}

impl Backbone for ClntmBackbone {
    fn name(&self) -> &'static str {
        "CLNTM"
    }

    fn batch_loss<'t>(
        &self,
        tape: &'t Tape,
        params: &Params,
        x: &Tensor,
        indices: &[usize],
        rng: &mut StdRng,
    ) -> BackboneOut<'t> {
        let e = self.inner.elbo(tape, params, x, rng);
        let (elbo, kl, beta) = (e.loss, e.kl, e.beta);
        if indices.is_empty() {
            return BackboneOut::new(elbo, beta).with_kl(kl);
        }
        let v = x.cols();
        let (pos, neg) = self.augment(indices, v, rng);

        // Encode anchor and both views with the shared encoder (posterior
        // means are CLNTM's document prototypes).
        let encode = |t: &Tensor, rng: &mut StdRng| {
            let mut tn = t.clone();
            tn.normalize_rows_l1();
            let tv = tape.constant(tn);
            let (mu, _lv) = self.inner.encoder.posterior(tape, params, tv, rng);
            mu
        };
        let h = Self::normalize_rows(encode(x, rng));
        let hp = Self::normalize_rows(encode(&pos, rng));
        let hn = Self::normalize_rows(encode(&neg, rng));

        // InfoNCE with one negative per document:
        // -log( e^{s+/t} / (e^{s+/t} + e^{s-/t}) ) = softplus((s- - s+)/t).
        let s_pos = h.mul(hp).sum_axis1();
        let s_neg = h.mul(hn).sum_axis1();
        let contrast = s_neg
            .sub(s_pos)
            .scale(1.0 / self.temperature)
            .softplus()
            .mean_all();
        let loss = elbo.add(contrast.scale(self.contrast_weight));
        BackboneOut::new(loss, beta).with_kl(kl)
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

/// A fitted CLNTM.
pub type Clntm = Fitted<ClntmBackbone>;

/// Fit CLNTM on `corpus` with frozen `embeddings`.
pub fn fit_clntm(corpus: &BowCorpus, embeddings: Tensor, config: &TrainConfig) -> Clntm {
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let backbone = ClntmBackbone::new(&mut params, corpus, embeddings, config, &mut rng);
    fit_backbone(backbone, params, corpus, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::TopicModel;
    use crate::testutil::{cluster_corpus, cluster_embeddings, topic_separation};

    #[test]
    fn augment_preserves_shapes_and_changes_content() {
        let corpus = cluster_corpus(2, 8, 20);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 2,
            ..TrainConfig::tiny()
        };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let bb = ClntmBackbone::new(&mut params, &corpus, emb, &config, &mut rng);
        let idx = vec![0, 1, 2];
        let (pos, neg) = bb.augment(&idx, corpus.vocab_size(), &mut rng);
        assert_eq!(pos.shape(), (3, 16));
        assert_eq!(neg.shape(), (3, 16));
        let x = corpus.dense_batch(&idx);
        // Positive is a subset of the doc (entrywise <= original).
        for i in 0..pos.numel() {
            assert!(pos.data()[i] <= x.data()[i] + 1e-6);
        }
        // Token mass is conserved in the negative view.
        for r in 0..3 {
            let nx: f32 = x.row(r).iter().sum();
            let nn: f32 = neg.row(r).iter().sum();
            assert!((nx - nn).abs() < 1e-4, "row {r}: {nx} vs {nn}");
        }
    }

    #[test]
    fn clntm_learns_planted_clusters() {
        let corpus = cluster_corpus(2, 12, 80);
        let emb = cluster_embeddings(&corpus);
        let config = TrainConfig {
            num_topics: 2,
            epochs: 60,
            batch_size: 64,
            learning_rate: 5e-3,
            ..TrainConfig::tiny()
        };
        let model = fit_clntm(&corpus, emb, &config);
        let sep = topic_separation(&model.beta(), 12);
        assert!(sep > 0.7, "topic separation {sep}");
        assert_eq!(model.name(), "CLNTM");
    }
}
