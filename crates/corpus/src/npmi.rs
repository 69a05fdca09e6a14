//! Normalized Pointwise Mutual Information over document-level
//! co-occurrence counts.
//!
//! This is both the similarity kernel `K(·)` of ContraTopic's regularizer
//! (precomputed on the *training* set, §IV-A) and the basis of the topic
//! coherence metric (computed on the *test* set, §V-B). The paper notes the
//! dense precomputed matrix costs `O(V^2)` memory — at our scales that is a
//! few dozen megabytes, kept in one contiguous `Tensor`.

use std::io::{self, Read, Write};

use ct_tensor::codec::{invalid_data, SliceReader};
use ct_tensor::Tensor;

use crate::bow::BowCorpus;

/// Dense symmetric NPMI matrix with value range `[-1, 1]`.
///
/// Convention: `npmi(i, i) = 1`; pairs that never co-occur get `-1`.
#[derive(Clone, Debug)]
pub struct NpmiMatrix {
    matrix: Tensor,
    num_docs: usize,
}

/// Incremental document-level co-occurrence counts.
///
/// Supports the paper's future-work *online setting*: documents arrive in
/// time slices, counts accumulate across slices, and a fresh NPMI matrix
/// can be materialized after each slice without recounting history.
#[derive(Clone, Debug)]
pub struct CoocAccumulator {
    vocab_size: usize,
    /// Strict upper-triangle pair counts, packed row-major: entry
    /// `(i, j)` with `i < j` lives at [`tri_index`]`(v, i, j)`. Halves
    /// the accumulator's resident memory versus a dense `v * v` grid —
    /// the dense `O(V^2)` matrix is only materialized by [`Self::to_npmi`].
    pair: Vec<u32>,
    df: Vec<u32>,
    num_docs: usize,
}

/// Index of pair `(i, j)`, `i < j < v`, in a packed strict upper triangle.
#[inline]
fn tri_index(v: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < v, "tri_index({v}, {i}, {j})");
    i * (2 * v - i - 1) / 2 + (j - i - 1)
}

impl CoocAccumulator {
    /// Empty counts over a `vocab_size`-word vocabulary.
    pub fn new(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            pair: vec![0; vocab_size * vocab_size.saturating_sub(1) / 2],
            df: vec![0; vocab_size],
            num_docs: 0,
        }
    }

    /// Add the documents of `corpus` (must share the vocabulary size).
    pub fn add_corpus(&mut self, corpus: &BowCorpus) {
        assert_eq!(
            corpus.vocab_size(),
            self.vocab_size,
            "vocabulary size mismatch"
        );
        let v = self.vocab_size;
        for doc in &corpus.docs {
            // `SparseDoc::ids()` is sorted ascending and unique, so every
            // later id `j` satisfies `i < j` — the packed row for `i`
            // starts at tri_index(v, i, i + 1) and ids are contiguous
            // offsets `j - i - 1` from there.
            let ids = doc.ids();
            for (a, &i) in ids.iter().enumerate() {
                let i = i as usize;
                self.df[i] += 1;
                if a + 1 < ids.len() {
                    let base = tri_index(v, i, i + 1);
                    for &j in &ids[a + 1..] {
                        self.pair[base + (j as usize - i - 1)] += 1;
                    }
                }
            }
            self.num_docs += 1;
        }
    }

    /// Documents counted so far.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Vocabulary size the counts are indexed over.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Serialize the exact integer counts: `vocab_size` and `num_docs`
    /// as `u64`, then `df` and the packed pair triangle as `u32`, all
    /// little-endian. On disk this is the `cooc` section of a stream
    /// checkpoint, whose container carries the checksum.
    ///
    /// Counts are integers, so a round trip is lossless: an accumulator
    /// restored by [`Self::read_from`] materializes a bitwise-identical
    /// NPMI matrix — this is what makes kill-and-resume replay of the
    /// streaming pipeline exact rather than merely close.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(16 + 4 * (self.df.len() + self.pair.len()));
        bytes.extend_from_slice(&(self.vocab_size as u64).to_le_bytes());
        bytes.extend_from_slice(&(self.num_docs as u64).to_le_bytes());
        for &c in self.df.iter().chain(&self.pair) {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        w.write_all(&bytes)
    }

    /// Restore an accumulator written by [`Self::write_to`]. Truncation
    /// and trailing bytes are typed `UnexpectedEof` / `InvalidData`
    /// errors rather than corrupt counts; every count is bounded by the
    /// bytes actually read.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let mut r = SliceReader::new(&bytes);
        let vocab_size = r.size()?;
        let num_docs = r.size()?;
        let pairs = vocab_size
            .checked_mul(vocab_size.saturating_sub(1))
            .map(|n| n / 2)
            .ok_or_else(|| invalid_data(format!("implausible vocab_size {vocab_size}")))?;
        let df = r.u32s(vocab_size)?;
        let pair = r.u32s(pairs)?;
        r.finish()?;
        Ok(Self {
            vocab_size,
            pair,
            df,
            num_docs,
        })
    }

    /// Materialize the NPMI matrix from the current counts.
    pub fn to_npmi(&self) -> NpmiMatrix {
        assert!(self.num_docs > 0, "no documents accumulated");
        let v = self.vocab_size;
        let dn = self.num_docs as f64;
        let mut matrix = Tensor::zeros(v, v);
        let data = matrix.data_mut();
        // The (i, j > i) loop order below visits the packed triangle
        // sequentially, so a running index replaces tri_index here.
        let mut tri = 0usize;
        for i in 0..v {
            data[i * v + i] = 1.0;
            let pi = self.df[i] as f64 / dn;
            for j in (i + 1)..v {
                let cij = self.pair[tri];
                tri += 1;
                let val = if cij == 0 || pi == 0.0 || self.df[j] == 0 {
                    -1.0
                } else {
                    let pj = self.df[j] as f64 / dn;
                    let pij = cij as f64 / dn;
                    let pmi = (pij / (pi * pj)).ln();
                    let denom = -pij.ln();
                    if denom <= 0.0 {
                        1.0 // pij == 1: the pair is in every document
                    } else {
                        (pmi / denom).clamp(-1.0, 1.0)
                    }
                };
                data[i * v + j] = val as f32;
                data[j * v + i] = val as f32;
            }
        }
        NpmiMatrix {
            matrix,
            num_docs: self.num_docs,
        }
    }
}

impl NpmiMatrix {
    /// Count document-level co-occurrences in `corpus` and convert to NPMI.
    ///
    /// A pair co-occurs when both words appear (at least once each) in the
    /// same document; multiplicity within a document is ignored, matching
    /// the standard topic-coherence definition (Lau et al. 2014).
    pub fn from_corpus(corpus: &BowCorpus) -> Self {
        assert!(corpus.num_docs() > 0, "empty corpus");
        let mut acc = CoocAccumulator::new(corpus.vocab_size());
        acc.add_corpus(corpus);
        acc.to_npmi()
    }

    /// NPMI between two word ids.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.matrix.get(i, j)
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of documents the statistics were computed from.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// The dense matrix (e.g. to use as the contrastive similarity kernel).
    pub fn matrix(&self) -> &Tensor {
        &self.matrix
    }

    /// Mean pairwise NPMI among a word set (the per-topic coherence score:
    /// average over all unordered pairs of the top words).
    pub fn mean_pairwise(&self, words: &[usize]) -> f64 {
        if words.len() < 2 {
            return 0.0;
        }
        let mut acc = 0.0f64;
        let mut n = 0usize;
        for (a, &i) in words.iter().enumerate() {
            for &j in &words[a + 1..] {
                acc += self.get(i, j) as f64;
                n += 1;
            }
        }
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bow::SparseDoc;
    use crate::vocab::Vocab;

    fn corpus_from_docs(vocab_size: usize, docs: &[&[u32]]) -> BowCorpus {
        let vocab = Vocab::from_words((0..vocab_size).map(|i| format!("w{i}")));
        let mut c = BowCorpus::new(vocab);
        for d in docs {
            c.docs.push(SparseDoc::from_tokens(d));
        }
        c
    }

    #[test]
    fn perfect_cooccurrence_scores_high() {
        // Words 0 and 1 always together; word 2 alone.
        let c = corpus_from_docs(3, &[&[0, 1], &[0, 1], &[0, 1], &[2], &[2], &[2]]);
        let n = NpmiMatrix::from_corpus(&c);
        assert!(n.get(0, 1) > 0.9, "npmi(0,1) = {}", n.get(0, 1));
        assert_eq!(n.get(0, 2), -1.0);
        assert_eq!(n.get(1, 2), -1.0);
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let c = corpus_from_docs(4, &[&[0, 1, 2], &[1, 2, 3], &[0, 3], &[2, 3]]);
        let n = NpmiMatrix::from_corpus(&c);
        for i in 0..4 {
            assert_eq!(n.get(i, i), 1.0);
            for j in 0..4 {
                assert_eq!(n.get(i, j), n.get(j, i));
            }
        }
    }

    #[test]
    fn independent_words_near_zero() {
        // Construct near-independence: each pair co-occurs at chance rate.
        // 0 in half the docs, 1 in half, together in a quarter.
        let c = corpus_from_docs(2, &[&[0, 1], &[0], &[1], &[], &[0, 1], &[0], &[1], &[]]);
        let mut c = c;
        c.docs.retain(|d| !d.is_empty());
        // p0 = 4/6, p1 = 4/6, p01 = 2/6 vs independent 16/36 = 0.444 — close.
        let n = NpmiMatrix::from_corpus(&c);
        assert!(n.get(0, 1).abs() < 0.35, "npmi = {}", n.get(0, 1));
    }

    #[test]
    fn values_bounded() {
        let c = corpus_from_docs(5, &[&[0, 1, 2, 3, 4], &[0, 2, 4], &[1, 3], &[0, 4]]);
        let n = NpmiMatrix::from_corpus(&c);
        for &v in n.matrix().data() {
            assert!((-1.0..=1.0).contains(&v), "NPMI out of range: {v}");
        }
    }

    #[test]
    fn multiplicity_within_doc_is_ignored() {
        let c1 = corpus_from_docs(2, &[&[0, 1], &[0]]);
        let c2 = corpus_from_docs(2, &[&[0, 0, 0, 1, 1], &[0, 0]]);
        let n1 = NpmiMatrix::from_corpus(&c1);
        let n2 = NpmiMatrix::from_corpus(&c2);
        assert!((n1.get(0, 1) - n2.get(0, 1)).abs() < 1e-6);
    }

    #[test]
    fn accumulator_matches_batch_computation() {
        let c1 = corpus_from_docs(4, &[&[0, 1, 2], &[1, 2, 3]]);
        let c2 = corpus_from_docs(4, &[&[0, 3], &[2, 3]]);
        let mut all = c1.clone();
        all.docs.extend(c2.docs.iter().cloned());
        let batch = NpmiMatrix::from_corpus(&all);
        let mut acc = CoocAccumulator::new(4);
        acc.add_corpus(&c1);
        acc.add_corpus(&c2);
        let incremental = acc.to_npmi();
        assert_eq!(acc.num_docs(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (batch.get(i, j) - incremental.get(i, j)).abs() < 1e-6,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn tri_index_is_a_packed_bijection() {
        for v in [2usize, 3, 7, 16] {
            let mut seen = vec![false; v * (v - 1) / 2];
            for i in 0..v {
                for j in (i + 1)..v {
                    let t = tri_index(v, i, j);
                    assert!(!seen[t], "tri_index collision at ({i},{j}) in v={v}");
                    seen[t] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "tri_index not onto for v={v}");
        }
    }

    #[test]
    fn accumulator_handles_tiny_vocabs() {
        // v = 1 has an empty triangle; the accumulator must not panic.
        let c = corpus_from_docs(1, &[&[0], &[0]]);
        let mut acc = CoocAccumulator::new(1);
        acc.add_corpus(&c);
        let n = acc.to_npmi();
        assert_eq!(n.get(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "vocabulary size mismatch")]
    fn accumulator_rejects_wrong_vocab() {
        let c = corpus_from_docs(4, &[&[0]]);
        let mut acc = CoocAccumulator::new(5);
        acc.add_corpus(&c);
    }

    #[test]
    fn accumulator_serialization_roundtrips_bitwise() {
        let c = corpus_from_docs(5, &[&[0, 1, 2, 3, 4], &[0, 2, 4], &[1, 3], &[0, 4]]);
        let mut acc = CoocAccumulator::new(5);
        acc.add_corpus(&c);
        let mut bytes = Vec::new();
        acc.write_to(&mut bytes).unwrap();
        let restored = CoocAccumulator::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(restored.num_docs(), acc.num_docs());
        assert_eq!(restored.vocab_size(), acc.vocab_size());
        assert_eq!(restored.df, acc.df);
        assert_eq!(restored.pair, acc.pair);
        // Bitwise-identical NPMI, not just approximately equal.
        let a = acc.to_npmi();
        let b = restored.to_npmi();
        assert_eq!(a.matrix().data(), b.matrix().data());
    }

    #[test]
    fn accumulator_read_rejects_corruption() {
        let c = corpus_from_docs(3, &[&[0, 1], &[1, 2]]);
        let mut acc = CoocAccumulator::new(3);
        acc.add_corpus(&c);
        let mut bytes = Vec::new();
        acc.write_to(&mut bytes).unwrap();

        let err = CoocAccumulator::read_from(&mut &bytes[..bytes.len() - 2]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        let mut long = bytes.clone();
        long.push(0);
        let err = CoocAccumulator::read_from(&mut long.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn mean_pairwise_averages_pairs() {
        let c = corpus_from_docs(3, &[&[0, 1], &[0, 1], &[2]]);
        let n = NpmiMatrix::from_corpus(&c);
        let coherent = n.mean_pairwise(&[0, 1]);
        let incoherent = n.mean_pairwise(&[0, 2]);
        assert!(coherent > incoherent);
        assert_eq!(n.mean_pairwise(&[0]), 0.0);
    }
}
