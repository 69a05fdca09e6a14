//! The immutable serving artifact: everything a query needs, precomputed
//! once at load/swap time and shared across worker threads behind an
//! `Arc`.
//!
//! A [`ModelSnapshot`] owns plain tensors only (no tapes, no interior
//! mutability), so it is `Send + Sync` and can be read concurrently
//! without locks. The engine holds the *current* snapshot behind an
//! atomically swappable `Arc`; replacing it never disturbs in-flight
//! batches, which keep their own clone until they finish.

use ct_corpus::{NpmiMatrix, SparseDoc, Vocab};
use ct_models::{Backbone, EncoderWeights, EtmBackbone, Fitted, ModelBundle};
use ct_tensor::{top_k_indices, Params, Tensor};

use crate::error::ServeError;

/// Immutable, thread-safe view of a trained model, ready to serve.
///
/// Holds the exported encoder weights (for amortized θ inference), the
/// concrete topic-word distribution `beta`, the vocabulary, each topic's
/// precomputed top-k words, and — when corpus statistics were supplied —
/// each topic's nearest neighbour by NPMI coherence.
#[derive(Clone, Debug)]
pub struct ModelSnapshot {
    encoder: EncoderWeights,
    beta: Tensor,
    vocab: Vocab,
    top_ids: Vec<Vec<usize>>,
    top_words: Vec<Vec<String>>,
    nearest_topic: Vec<Option<usize>>,
}

impl ModelSnapshot {
    /// Build a snapshot from a trained ETM-backbone model.
    ///
    /// `top_k` is the number of top words precomputed per topic. The
    /// vocabulary must match the model's `beta` width.
    pub fn from_model(
        model: &Fitted<EtmBackbone>,
        vocab: Vocab,
        top_k: usize,
    ) -> Result<Self, ServeError> {
        Self::from_parts(&model.backbone, &model.params, vocab, top_k)
    }

    /// Build a snapshot from a backbone and its parameter registry.
    pub fn from_parts(
        backbone: &EtmBackbone,
        params: &Params,
        vocab: Vocab,
        top_k: usize,
    ) -> Result<Self, ServeError> {
        let encoder = backbone.encoder.export_weights(params);
        let beta = backbone.beta_tensor(params);
        let snap = Self::assemble(encoder, beta, vocab, top_k)?;
        Ok(snap)
    }

    /// Load a snapshot from an on-disk bundle written by
    /// [`ct_models::ModelBundle::save`] (the CLI's `train --out` prefix).
    pub fn load(prefix: &str, top_k: usize) -> std::io::Result<Self> {
        let (bundle, backbone, params) = ModelBundle::load_model(prefix)?;
        Self::from_parts(&backbone, &params, bundle.vocab, top_k)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    fn assemble(
        encoder: EncoderWeights,
        beta: Tensor,
        vocab: Vocab,
        top_k: usize,
    ) -> Result<Self, ServeError> {
        let k = beta.rows();
        let v = beta.cols();
        if encoder.vocab_size() != v || encoder.num_topics() != k {
            return Err(ServeError::InvalidSnapshot(format!(
                "encoder ({} topics, {} words) does not match beta ({k}, {v})",
                encoder.num_topics(),
                encoder.vocab_size()
            )));
        }
        if vocab.len() != v {
            return Err(ServeError::InvalidSnapshot(format!(
                "vocabulary has {} words but beta has {v} columns",
                vocab.len()
            )));
        }
        let top_ids: Vec<Vec<usize>> = (0..k).map(|t| top_k_indices(beta.row(t), top_k)).collect();
        let top_words = top_ids
            .iter()
            .map(|ids| {
                ids.iter()
                    .map(|&w| vocab.word(w as u32).to_string())
                    .collect()
            })
            .collect();
        let snap = Self {
            encoder,
            beta,
            vocab,
            top_ids,
            top_words,
            nearest_topic: vec![None; k],
        };
        snap.validate().map_err(ServeError::InvalidSnapshot)?;
        Ok(snap)
    }

    /// Attach nearest-topic-by-NPMI annotations: for each topic, the other
    /// topic whose top words have the highest mean cross NPMI with this
    /// topic's top words. `npmi` must be computed over the same
    /// vocabulary (typically from the training corpus).
    pub fn with_npmi(mut self, npmi: &NpmiMatrix) -> Result<Self, ServeError> {
        if npmi.vocab_size() != self.vocab.len() {
            return Err(ServeError::InvalidSnapshot(format!(
                "NPMI matrix over {} words but vocabulary has {}",
                npmi.vocab_size(),
                self.vocab.len()
            )));
        }
        let k = self.num_topics();
        for t in 0..k {
            let mut best: Option<(usize, f64)> = None;
            for other in 0..k {
                if other == t {
                    continue;
                }
                let score = cross_npmi(npmi, &self.top_ids[t], &self.top_ids[other]);
                if best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((other, score));
                }
            }
            self.nearest_topic[t] = best.map(|(other, _)| other);
        }
        Ok(self)
    }

    /// Check the snapshot is servable: non-empty, shape-consistent, and
    /// every `beta` entry finite. Returns the first problem found.
    ///
    /// The engine runs this before accepting a snapshot swap; a snapshot
    /// that fails here is *poisoned* and the previous one stays live.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_topics() == 0 {
            return Err("snapshot has zero topics".into());
        }
        if self.vocab_size() == 0 {
            return Err("snapshot has an empty vocabulary".into());
        }
        if let Some(bad) = self.beta.data().iter().find(|v| !v.is_finite()) {
            return Err(format!("beta contains a non-finite value ({bad})"));
        }
        Ok(())
    }

    /// Amortized topic mixture for a batch of raw counts `(docs, vocab)`:
    /// [`EncoderWeights::infer_theta`], the one eval forward, which
    /// offline evaluation (`TopicModel::theta`) runs too.
    pub fn infer_theta(&self, x: &Tensor) -> Tensor {
        self.encoder.infer_theta(x)
    }

    /// Materialize a batch of sparse documents as a `(docs, V)` counts
    /// tensor.
    ///
    /// Returns a CSR-backed tensor: the inference path is
    /// normalize-then-matmul, so the sparse storage backend serves it
    /// with bitwise-identical θ while skipping the `docs x V` dense
    /// scatter entirely (the serving determinism suite pins this against
    /// the training-side eval path).
    pub fn dense_batch(&self, docs: &[&SparseDoc]) -> Tensor {
        ct_corpus::csr_batch_from_docs(docs, self.vocab_size())
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.encoder.num_topics()
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.encoder.vocab_size()
    }

    /// The model vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Precomputed top words for `topic`.
    pub fn top_words(&self, topic: usize) -> &[String] {
        &self.top_words[topic]
    }

    /// The topic-word distribution `(K, V)`.
    pub fn beta(&self) -> &Tensor {
        &self.beta
    }

    /// Nearest topic by NPMI, if corpus statistics were attached.
    pub fn nearest_topic(&self, topic: usize) -> Option<usize> {
        self.nearest_topic[topic]
    }

    /// Reject documents that cannot be inferred against this snapshot.
    pub fn check_doc(&self, doc: &SparseDoc) -> Result<(), ServeError> {
        if doc.is_empty() {
            return Err(ServeError::EmptyDocument);
        }
        let v = self.vocab_size();
        if let Some(&bad) = doc.ids().iter().find(|&&id| id as usize >= v) {
            return Err(ServeError::VocabMismatch {
                word_id: bad,
                vocab_size: v,
            });
        }
        Ok(())
    }

    /// Assemble the full response for one inferred θ row.
    pub fn build_response(&self, theta: Vec<f32>, top_n: usize) -> QueryResponse {
        let order = top_k_indices(&theta, top_n);
        let top = order
            .into_iter()
            .map(|t| TopicHit {
                topic: t,
                weight: theta[t],
                top_words: self.top_words[t].clone(),
                nearest_topic: self.nearest_topic[t],
            })
            .collect();
        QueryResponse { theta, top }
    }
}

/// Mean NPMI over all cross pairs between two topics' top-word id lists.
fn cross_npmi(npmi: &NpmiMatrix, a: &[usize], b: &[usize]) -> f64 {
    let mut acc = 0.0f64;
    let mut n = 0usize;
    for &i in a {
        for &j in b {
            if i != j {
                acc += npmi.get(i, j) as f64;
                n += 1;
            }
        }
    }
    if n == 0 {
        -1.0
    } else {
        acc / n as f64
    }
}

/// One topic's entry in a query response.
#[derive(Clone, Debug)]
pub struct TopicHit {
    /// Topic index.
    pub topic: usize,
    /// The document's weight on this topic (`theta[topic]`).
    pub weight: f32,
    /// The topic's precomputed top words.
    pub top_words: Vec<String>,
    /// The most NPMI-coherent other topic, when corpus statistics were
    /// attached at serve time.
    pub nearest_topic: Option<usize>,
}

/// The answer to one doc→topic query.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The full topic mixture θ (sums to 1).
    pub theta: Vec<f32>,
    /// The strongest topics, descending by weight.
    pub top: Vec<TopicHit>,
}

impl QueryResponse {
    /// Render as a single-line JSON object (the wire format of the
    /// Unix-socket front-end).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + 16 * self.theta.len());
        s.push_str("{\"theta\":[");
        for (i, v) in self.theta.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_f32(&mut s, *v);
        }
        s.push_str("],\"top\":[");
        for (i, hit) in self.top.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"topic\":{},\"weight\":", hit.topic));
            push_f32(&mut s, hit.weight);
            s.push_str(",\"words\":[");
            for (j, w) in hit.top_words.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                ct_tensor::codec::json::push_json_str(&mut s, w);
            }
            s.push(']');
            if let Some(n) = hit.nearest_topic {
                s.push_str(&format!(",\"nearest_topic\":{n}"));
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

fn push_f32(s: &mut String, v: f32) {
    if v.is_finite() {
        s.push_str(&format!("{v}"));
    } else {
        s.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_json_shape() {
        let r = QueryResponse {
            theta: vec![0.25, 0.75],
            top: vec![TopicHit {
                topic: 1,
                weight: 0.75,
                top_words: vec!["ship\"s".into(), "sea".into()],
                nearest_topic: Some(0),
            }],
        };
        let json = r.to_json();
        assert!(json.starts_with("{\"theta\":[0.25,0.75],"), "{json}");
        assert!(json.contains("\"topic\":1"), "{json}");
        assert!(json.contains("\\\""), "escapes quotes: {json}");
        assert!(json.contains("\"nearest_topic\":0"), "{json}");
    }
}
