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
use ct_models::{Backbone, EncoderWeights, EtmBackbone, ModelBundle, TrainedModel};
use ct_tensor::{Params, Tensor};

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
    /// Serving-only bf16 score table (see [`ModelSnapshot::with_bf16_beta`]).
    beta_bf16: Option<Vec<u16>>,
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
        model: &TrainedModel<EtmBackbone>,
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
            beta_bf16: None,
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
        if let Some(bits) = &self.beta_bf16 {
            if bits.len() != self.beta.numel() {
                return Err(format!(
                    "bf16 score table has {} entries but beta has {}",
                    bits.len(),
                    self.beta.numel()
                ));
            }
        }
        Ok(())
    }

    /// [`ModelSnapshot::validate`], plus the training/export gate: a
    /// bf16-flagged snapshot is **rejected**. Reduced precision is a
    /// serving-time scoring optimization only — its word scores have
    /// already been rounded (relative error up to `2^-8`), so feeding
    /// them back into training, evaluation, or an on-disk bundle would
    /// silently degrade every downstream f32 computation. Exporters must
    /// call this instead of [`ModelSnapshot::validate`]; rebuild from the
    /// f32 bundle to export.
    pub fn validate_for_export(&self) -> Result<(), String> {
        self.validate()?;
        if self.beta_bf16.is_some() {
            return Err(
                "snapshot is bf16-flagged (serving-only reduced precision); \
                 rebuild from the f32 bundle for training or export"
                    .into(),
            );
        }
        Ok(())
    }

    /// Switch topic-word scoring to a bf16-storage / f32-accumulate
    /// table: `beta` is rounded to bfloat16 (round-to-nearest-even) and
    /// every topic's top-k word ranking is recomputed from the 16-bit
    /// score table, halving the memory traffic of the `K x V` scan.
    ///
    /// **Tolerance bound:** bfloat16 keeps 8 significand bits, so each
    /// stored score differs from its f32 source by a relative error of at
    /// most `2^-8` (≈ 0.39%). θ inference is *unaffected* — the encoder
    /// runs entirely in f32, so served mixtures stay bitwise identical to
    /// the unflagged snapshot; only word-rank scoring reads rounded
    /// values, and rank order is preserved whenever adjacent scores are
    /// more than one bf16 ULP apart (asserted on the fixture snapshots by
    /// the serving test suite).
    ///
    /// Serving-only: [`ModelSnapshot::validate_for_export`] rejects
    /// flagged snapshots so rounded scores can never leak back into
    /// training. The f32 `beta` is retained for [`ModelSnapshot::beta`]
    /// consumers (e.g. NPMI annotation).
    pub fn with_bf16_beta(mut self) -> Self {
        let bits: Vec<u16> = self.beta.data().iter().map(|&v| f32_to_bf16(v)).collect();
        let v = self.vocab_size();
        // Re-rank from the rounded table: bf16 bit patterns of
        // non-negative finite floats are monotone in value, so the u16
        // keys order exactly as the f32 values they encode.
        self.top_ids = (0..self.num_topics())
            .map(|t| {
                let k = self.top_ids[t].len();
                scan_top_k(&bits[t * v..(t + 1) * v], k)
            })
            .collect();
        self.top_words = self
            .top_ids
            .iter()
            .map(|ids| {
                ids.iter()
                    .map(|&w| self.vocab.word(w as u32).to_string())
                    .collect()
            })
            .collect();
        self.beta_bf16 = Some(bits);
        self
    }

    /// Whether topic-word scoring reads the bf16 table.
    pub fn bf16_beta_enabled(&self) -> bool {
        self.beta_bf16.is_some()
    }

    /// Recompute every topic's top-`k` word ids from the active score
    /// table — the `K x V` scan the bf16 flag accelerates (and the
    /// operation `serve_bench` times). Both paths use the same
    /// single-pass selection (descending, ties to the lower index), so
    /// with the flag off this returns exactly the ranking precomputed at
    /// assembly time.
    pub fn score_top_k(&self, k: usize) -> Vec<Vec<usize>> {
        let v = self.vocab_size();
        match &self.beta_bf16 {
            Some(bits) => (0..self.num_topics())
                .map(|t| scan_top_k(&bits[t * v..(t + 1) * v], k))
                .collect(),
            None => (0..self.num_topics())
                .map(|t| scan_top_k(self.beta.row(t), k))
                .collect(),
        }
    }

    /// Amortized topic mixture for a dense batch of raw counts
    /// `(docs, vocab)`; bitwise identical to the training-side
    /// `Backbone::infer_theta_batch` eval path.
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
        let order = top_k_indices(&theta, top_n.min(theta.len()));
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

/// Round an f32 to bfloat16 (round-to-nearest-even), returned as the raw
/// 16-bit pattern. Finite inputs only (snapshot `beta` is validated
/// finite before conversion).
fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    let round = ((bits >> 16) & 1).wrapping_add(0x7FFF);
    (bits.wrapping_add(round) >> 16) as u16
}

/// Widen a bf16 bit pattern back to f32 (exact). Scoring never widens —
/// ranks compare the u16 patterns directly — so this is only exercised by
/// the round-trip tests.
#[cfg(test)]
fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Indices of the `k` largest keys of `row` by one linear scan with a
/// small sorted buffer: descending, ties broken by lower index — the same
/// order [`top_k_indices`] produces by full sort, but memory-bound on the
/// score table, which is what makes the bf16 table's halved traffic
/// measurable. Works for `f32` rows (finite) and for bf16 bit patterns as
/// `u16`, whose unsigned order equals value order for the non-negative
/// scores a softmax produces.
fn scan_top_k<K: Copy + PartialOrd>(row: &[K], k: usize) -> Vec<usize> {
    let mut buf: Vec<(K, usize)> = Vec::with_capacity(k + 1);
    for (i, &key) in row.iter().enumerate() {
        if buf.len() == k {
            match buf.last() {
                Some(&(last, _)) if key > last => {}
                _ => continue,
            }
        }
        let pos = buf
            .iter()
            .position(|&(bk, _)| key > bk)
            .unwrap_or(buf.len());
        buf.insert(pos, (key, i));
        if buf.len() > k {
            buf.pop();
        }
    }
    buf.into_iter().map(|(_, i)| i).collect()
}

/// Indices of the `k` largest values of `row`, descending; ties broken by
/// lower index for determinism.
fn top_k_indices(row: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| {
        row[b]
            .partial_cmp(&row[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
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
    fn top_k_indices_descending_stable() {
        let row = [0.1, 0.5, 0.5, 0.3];
        assert_eq!(top_k_indices(&row, 3), vec![1, 2, 3]);
        assert_eq!(top_k_indices(&row, 10), vec![1, 2, 3, 0]);
    }

    #[test]
    fn scan_top_k_matches_full_sort() {
        let row = [0.1f32, 0.5, 0.5, 0.3, 0.0, 0.5, 0.2];
        for k in 0..=row.len() + 1 {
            assert_eq!(
                scan_top_k(&row, k),
                top_k_indices(&row, k.min(row.len())),
                "k={k}"
            );
        }
    }

    #[test]
    fn bf16_round_trip_and_tolerance() {
        // Exactly representable values survive the round trip.
        for v in [0.0f32, 0.5, 1.0, 2.0, -1.5] {
            assert_eq!(bf16_to_f32(f32_to_bf16(v)), v);
        }
        // Round-to-nearest-even at the midpoint: bf16's ulp at 1.0 is
        // 2^-7, so 1 + 2^-8 is a tie and must round to the even
        // significand (down to 1.0 here).
        assert_eq!(bf16_to_f32(f32_to_bf16(1.0 + 2f32.powi(-8))), 1.0);
        // Relative error stays within 2^-8 over several magnitudes.
        let mut state = 9u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) as f32 / (1u64 << 33) as f32 + 1e-6) * 3.0;
            let r = bf16_to_f32(f32_to_bf16(v));
            assert!(
                (r - v).abs() <= v.abs() * 2f32.powi(-8),
                "{v} rounded to {r}"
            );
        }
    }

    #[test]
    fn bf16_keys_order_like_their_values() {
        // Monotonicity of the u16 patterns for non-negative floats.
        let vals = [0.0f32, 1e-30, 1e-8, 0.001, 0.5, 0.999, 1.0, 7.25, 3e7];
        for w in vals.windows(2) {
            assert!(f32_to_bf16(w[0]) <= f32_to_bf16(w[1]), "{} {}", w[0], w[1]);
        }
    }

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
