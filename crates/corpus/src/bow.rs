//! Bag-of-words corpus representation.
//!
//! Documents are stored sparsely (sorted `(word id, count)` pairs) and
//! materialized into dense row-major batches only when a model consumes
//! them, which keeps memory proportional to corpus tokens rather than
//! `D x V`.

use ct_tensor::{CsrMatrix, Tensor};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::vocab::Vocab;

/// Assemble sparse documents into a CSR-backed `(docs, vocab_size)` counts
/// tensor without materializing zeros.
///
/// Element-for-element (and bitwise) equal to scattering each document
/// into a dense row: `SparseDoc` stores ids ascending with aggregated
/// counts, which is exactly the CSR row invariant, so the conversion is a
/// straight copy. Downstream CSR matmul kernels accumulate the same
/// nonzero terms in the same order as their dense counterparts, so a
/// model fed this batch follows a bitwise-identical trajectory.
pub fn csr_batch_from_docs(docs: &[&SparseDoc], vocab_size: usize) -> Tensor {
    Tensor::from_csr(CsrMatrix::from_rows(
        docs.len(),
        vocab_size,
        docs.iter().map(|d| d.iter()),
    ))
}

/// One document as sorted sparse `(word id, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseDoc {
    ids: Vec<u32>,
    counts: Vec<f32>,
}

impl SparseDoc {
    /// Build from an unsorted token-id sequence, aggregating counts.
    pub fn from_tokens(tokens: &[u32]) -> Self {
        let mut sorted = tokens.to_vec();
        sorted.sort_unstable();
        let mut ids = Vec::new();
        let mut counts = Vec::new();
        for &t in &sorted {
            if ids.last() == Some(&t) {
                *counts.last_mut().unwrap() += 1.0;
            } else {
                ids.push(t);
                counts.push(1.0);
            }
        }
        Self { ids, counts }
    }

    /// Unique word ids, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Counts aligned with [`SparseDoc::ids`].
    pub fn counts(&self) -> &[f32] {
        &self.counts
    }

    /// Number of distinct words.
    pub fn num_unique(&self) -> usize {
        self.ids.len()
    }

    /// Total token count.
    pub fn len(&self) -> f32 {
        self.counts.iter().sum()
    }

    /// Whether the document has no terms at all.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterate `(id, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.ids.iter().copied().zip(self.counts.iter().copied())
    }

    /// Scatter into a dense row of length `vocab_size`.
    pub fn write_dense(&self, row: &mut [f32]) {
        row.fill(0.0);
        for (id, c) in self.iter() {
            row[id as usize] = c;
        }
    }
}

/// A corpus of sparse documents over a shared vocabulary, with optional
/// document labels (20NG- and Yahoo-like datasets are labelled; the
/// NYTimes-like dataset is not).
#[derive(Clone, Debug, Default)]
pub struct BowCorpus {
    /// The shared vocabulary all document term ids index into.
    pub vocab: Vocab,
    /// The documents, as sparse term-count vectors.
    pub docs: Vec<SparseDoc>,
    /// Per-document class labels, when the dataset has them.
    pub labels: Option<Vec<usize>>,
}

impl BowCorpus {
    /// An empty corpus over `vocab`.
    pub fn new(vocab: Vocab) -> Self {
        Self {
            vocab,
            docs: Vec::new(),
            labels: None,
        }
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Number of words in the shared vocabulary.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Total token count across all documents.
    pub fn num_tokens(&self) -> f64 {
        self.docs.iter().map(|d| d.len() as f64).sum()
    }

    /// Mean document length in tokens.
    pub fn avg_doc_len(&self) -> f64 {
        if self.docs.is_empty() {
            0.0
        } else {
            self.num_tokens() / self.docs.len() as f64
        }
    }

    /// Materialize documents `indices` as a dense `(batch, V)` tensor.
    pub fn dense_batch(&self, indices: &[usize]) -> Tensor {
        let v = self.vocab_size();
        let mut out = Tensor::zeros(indices.len(), v);
        for (r, &d) in indices.iter().enumerate() {
            self.docs[d].write_dense(out.row_mut(r));
        }
        out
    }

    /// Materialize documents `indices` as a CSR-backed `(batch, V)` tensor.
    ///
    /// Holds the same values as [`BowCorpus::dense_batch`] (bitwise — see
    /// [`csr_batch_from_docs`]) but costs `O(tokens)` instead of
    /// `O(batch x V)`, and routes downstream matmuls onto the sparse
    /// kernels. Use it anywhere the batch is consumed by ops with CSR
    /// support (encode/decode paths); ops that mutate arbitrary elements
    /// need [`BowCorpus::dense_batch`].
    pub fn csr_batch(&self, indices: &[usize]) -> Tensor {
        let docs: Vec<&SparseDoc> = indices.iter().map(|&d| &self.docs[d]).collect();
        csr_batch_from_docs(&docs, self.vocab_size())
    }

    /// Per-word document frequency (number of docs containing the word).
    pub fn doc_frequencies(&self) -> Vec<u32> {
        let mut df = vec![0u32; self.vocab_size()];
        for d in &self.docs {
            for &id in d.ids() {
                df[id as usize] += 1;
            }
        }
        df
    }

    /// Per-word total count.
    pub fn word_counts(&self) -> Vec<f64> {
        let mut wc = vec![0f64; self.vocab_size()];
        for d in &self.docs {
            for (id, c) in d.iter() {
                wc[id as usize] += c as f64;
            }
        }
        wc
    }

    /// Smoothed tf-idf weights for one document (used by CLNTM's
    /// augmentation strategy).
    pub fn tfidf_doc(&self, doc: usize, df: &[u32]) -> Vec<(u32, f32)> {
        let n = self.num_docs() as f32;
        let d = &self.docs[doc];
        let total = d.len().max(1.0);
        d.iter()
            .map(|(id, c)| {
                let idf = ((1.0 + n) / (1.0 + df[id as usize] as f32)).ln() + 1.0;
                (id, (c / total) * idf)
            })
            .collect()
    }

    /// Random split into `(train, rest)` with `train_frac` of docs in train.
    /// Labels are carried along.
    pub fn split<R: Rng>(&self, train_frac: f64, rng: &mut R) -> (BowCorpus, BowCorpus) {
        let mut idx: Vec<usize> = (0..self.num_docs()).collect();
        idx.shuffle(rng);
        let n_train = ((self.num_docs() as f64) * train_frac).round() as usize;
        let (tr, te) = idx.split_at(n_train.min(idx.len()));
        (self.subset(tr), self.subset(te))
    }

    /// New corpus containing only the given documents (same vocabulary).
    pub fn subset(&self, indices: &[usize]) -> BowCorpus {
        BowCorpus {
            vocab: self.vocab.clone(),
            docs: indices.iter().map(|&i| self.docs[i].clone()).collect(),
            labels: self
                .labels
                .as_ref()
                .map(|l| indices.iter().map(|&i| l[i]).collect()),
        }
    }

    /// Drop documents with fewer than `min_tokens` tokens (the paper removes
    /// documents shorter than two words).
    pub fn remove_short_docs(&mut self, min_tokens: f32) {
        if let Some(labels) = &mut self.labels {
            let mut kept_labels = Vec::with_capacity(labels.len());
            let mut kept_docs = Vec::with_capacity(self.docs.len());
            for (d, &l) in self.docs.iter().zip(labels.iter()) {
                if d.len() >= min_tokens {
                    kept_docs.push(d.clone());
                    kept_labels.push(l);
                }
            }
            self.docs = kept_docs;
            *labels = kept_labels;
        } else {
            self.docs.retain(|d| d.len() >= min_tokens);
        }
    }
}

/// Iterator over shuffled mini-batches of document indices.
pub struct BatchIter {
    order: Vec<usize>,
    batch_size: usize,
    pos: usize,
}

impl BatchIter {
    /// Shuffle `0..num_docs` with `rng` and yield batches of
    /// `batch_size` indices (the last batch may be short).
    pub fn new<R: Rng>(num_docs: usize, batch_size: usize, rng: &mut R) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut order: Vec<usize> = (0..num_docs).collect();
        order.shuffle(rng);
        Self {
            order,
            batch_size,
            pos: 0,
        }
    }
}

impl Iterator for BatchIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.order.len() {
            return None;
        }
        let end = (self.pos + self.batch_size).min(self.order.len());
        let batch = self.order[self.pos..end].to_vec();
        self.pos = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_corpus() -> BowCorpus {
        let vocab = Vocab::from_words(["a", "b", "c", "d"]);
        let mut c = BowCorpus::new(vocab);
        c.docs.push(SparseDoc::from_tokens(&[0, 0, 1]));
        c.docs.push(SparseDoc::from_tokens(&[1, 2, 2, 3]));
        c.docs.push(SparseDoc::from_tokens(&[3]));
        c.labels = Some(vec![0, 1, 1]);
        c
    }

    #[test]
    fn sparse_doc_aggregates_counts() {
        let d = SparseDoc::from_tokens(&[2, 0, 2, 2]);
        assert_eq!(d.ids(), &[0, 2]);
        assert_eq!(d.counts(), &[1.0, 3.0]);
        assert_eq!(d.len(), 4.0);
        assert_eq!(d.num_unique(), 2);
    }

    #[test]
    fn dense_batch_scatter() {
        let c = tiny_corpus();
        let b = c.dense_batch(&[0, 2]);
        assert_eq!(b.shape(), (2, 4));
        assert_eq!(b.row(0), &[2.0, 1.0, 0.0, 0.0]);
        assert_eq!(b.row(1), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn csr_batch_matches_dense_batch_bitwise() {
        let c = tiny_corpus();
        let idx = [0, 2, 1, 0];
        let sparse = c.csr_batch(&idx);
        let dense = c.dense_batch(&idx);
        assert!(sparse.is_sparse());
        assert_eq!(sparse.shape(), dense.shape());
        for r in 0..idx.len() {
            for col in 0..c.vocab_size() {
                assert_eq!(
                    sparse.get(r, col).to_bits(),
                    dense.get(r, col).to_bits(),
                    "({r}, {col})"
                );
            }
        }
    }

    #[test]
    fn doc_frequencies_and_word_counts() {
        let c = tiny_corpus();
        assert_eq!(c.doc_frequencies(), vec![1, 2, 1, 2]);
        assert_eq!(c.word_counts(), vec![2.0, 2.0, 2.0, 2.0]);
        assert_eq!(c.num_tokens(), 8.0);
        assert!((c.avg_doc_len() - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn split_partitions_docs_and_labels() {
        let c = tiny_corpus();
        let mut rng = StdRng::seed_from_u64(1);
        let (tr, te) = c.split(2.0 / 3.0, &mut rng);
        assert_eq!(tr.num_docs(), 2);
        assert_eq!(te.num_docs(), 1);
        assert_eq!(tr.labels.as_ref().unwrap().len(), 2);
        assert_eq!(te.labels.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn remove_short_docs_keeps_labels_aligned() {
        let mut c = tiny_corpus();
        c.remove_short_docs(2.0);
        assert_eq!(c.num_docs(), 2);
        assert_eq!(c.labels, Some(vec![0, 1]));
    }

    #[test]
    fn batch_iter_covers_all_docs_once() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [0; 10];
        for batch in BatchIter::new(10, 3, &mut rng) {
            assert!(batch.len() <= 3);
            for i in batch {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn tfidf_downweights_common_words() {
        let c = tiny_corpus();
        let df = c.doc_frequencies();
        let w = c.tfidf_doc(1, &df);
        // Word 2 appears twice in doc 1 and in 1 doc overall; word 1 appears
        // once here and in 2 docs: word 2 must get a higher tf-idf.
        let get = |id: u32| w.iter().find(|&&(i, _)| i == id).unwrap().1;
        assert!(get(2) > get(1));
    }
}
