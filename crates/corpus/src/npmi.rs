//! Normalized Pointwise Mutual Information over document-level
//! co-occurrence counts.
//!
//! This is both the similarity kernel `K(·)` of ContraTopic's regularizer
//! (precomputed on the *training* set, §IV-A) and the basis of the topic
//! coherence metric (computed on the *test* set, §V-B). The paper notes the
//! dense precomputed matrix costs `O(V^2)` memory — at our scales that is a
//! few dozen megabytes, kept in one contiguous `Tensor`.
//!
//! [`CoocAccumulator`] is the one co-occurrence counter: it materializes
//! the dense NPMI ([`CoocAccumulator::to_npmi`]) and the sparse positive
//! PMI the word embeddings factorise ([`CoocAccumulator::to_ppmi`]), so a
//! split counted once yields both. Both compute a pair's PMI by the same
//! `f64` expression and fill rows on the worker pool; every entry is
//! computed on its own, so the results do not depend on the worker count.

use std::io::{self, Read, Write};

use ct_tensor::codec::{invalid_data, SliceReader};
use ct_tensor::csr::CsrMatrix;
use ct_tensor::{pool, Tensor};

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
    upper_row_start(v, i) + (j - i - 1)
}

/// Where row `i < v`'s pairs `(i, j > i)` start in the packed triangle.
#[inline]
fn upper_row_start(v: usize, i: usize) -> usize {
    i * (2 * v - i - 1) / 2
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
    ///
    /// The diagonal and the upper triangle are filled row by row, reading
    /// the packed triangle in order, and the lower triangle is then
    /// mirrored from the upper in cache-sized tiles; no store is
    /// column-strided. Both passes split their rows across the worker
    /// pool (every entry is computed on its own, so the matrix is the same
    /// at any worker count), and `ln p(i,j)` comes from a table over the
    /// possible counts, computed by the same expression.
    pub fn to_npmi(&self) -> NpmiMatrix {
        assert!(self.num_docs > 0, "no documents accumulated");
        let v = self.vocab_size;
        let dn = self.num_docs as f64;
        let ln_p: Vec<f64> = (0..=self.num_docs).map(|c| (c as f64 / dn).ln()).collect();
        let mut matrix = Tensor::zeros(v, v);
        let data = SharedRows(matrix.data_mut().as_mut_ptr());
        for_each_balanced(v, v, |i| {
            // SAFETY: row `i` is handed to exactly one call, and the
            // matrix holds `v` rows of `v`.
            let row = unsafe { std::slice::from_raw_parts_mut(data.get().add(i * v), v) };
            row[i] = 1.0;
            for ((j, out), &cij) in (i + 1..v).zip(&mut row[i + 1..]).zip(self.upper_row(i)) {
                *out = match self.pmi(i, j, cij) {
                    None => -1.0,
                    Some(pmi) => {
                        let denom = -ln_p[cij as usize];
                        if denom <= 0.0 {
                            1.0 // pij == 1: the pair is in every document
                        } else {
                            (pmi / denom).clamp(-1.0, 1.0) as f32
                        }
                    }
                };
            }
        });
        mirror_upper_triangle(data, v);
        NpmiMatrix {
            matrix,
            num_docs: self.num_docs,
        }
    }

    /// The positive PMI of every pair, as a symmetric sparse matrix:
    /// `ppmi(i, j) = max(ln(p(i,j) / (p(i)·p(j))), 0)` over document-level
    /// co-occurrence, the PMI computed in `f64` exactly as [`Self::to_npmi`]
    /// computes it and rounded to `f32`. Both triangles are stored, columns
    /// ascending within each row, and only entries `> 0`: pairs that never
    /// co-occur, or co-occur at or below chance, and the diagonal are not
    /// stored. (At the NYTimes-like quick scale, `V` = 2400, that is ~31%
    /// of the `V²` grid, ~14 MB instead of a 23 MB dense `f32` matrix.)
    pub fn to_ppmi(&self) -> CsrMatrix {
        assert!(self.num_docs > 0, "no documents accumulated");
        let v = self.vocab_size;
        // Every pair's PMI as `f32`, laid out like the packed counts and
        // filled row by row on the pool (`0.0` where there is none).
        let mut pmi = vec![0.0f32; self.pair.len()];
        let out = SharedRows(pmi.as_mut_ptr());
        for_each_balanced(v, v, |i| {
            let start = upper_row_start(v, i);
            // SAFETY: row `i`'s run of the packed triangle is handed to
            // exactly one call.
            let row = unsafe { std::slice::from_raw_parts_mut(out.get().add(start), v - i - 1) };
            for ((j, x), &cij) in (i + 1..v).zip(row).zip(self.upper_row(i)) {
                *x = self.pmi(i, j, cij).map_or(0.0, |pmi| pmi as f32);
            }
        });
        let upper = |i: usize| {
            let row = &pmi[upper_row_start(v, i)..][..v - i - 1];
            (i + 1..v).zip(row).filter(|(_, &x)| x > 0.0)
        };
        // Row `r` holds its own positive upper entries and the mirror of
        // every positive `(i, r)` with `i < r`.
        let mut row_len = vec![0u32; v];
        for i in 0..v {
            for (j, _) in upper(i) {
                row_len[i] += 1;
                row_len[j] += 1;
            }
        }
        let mut row_ptr = Vec::with_capacity(v + 1);
        row_ptr.push(0u32);
        for &len in &row_len {
            row_ptr.push(row_ptr[row_ptr.len() - 1] + len);
        }
        let nnz = row_ptr[v] as usize;
        let (mut col_idx, mut values) = (vec![0u32; nnz], vec![0.0f32; nnz]);
        // Row `r` receives its mirrored entries while rows `i < r` are
        // walked, then its own upper entries: columns ascend.
        let mut next: Vec<usize> = row_ptr[..v].iter().map(|&p| p as usize).collect();
        for i in 0..v {
            for (j, &val) in upper(i) {
                for (r, c) in [(i, j as u32), (j, i as u32)] {
                    col_idx[next[r]] = c;
                    values[next[r]] = val;
                    next[r] += 1;
                }
            }
        }
        CsrMatrix::from_parts(v, v, row_ptr, col_idx, values)
    }

    /// The counts of pairs `(i, j > i)`, in `j` order.
    fn upper_row(&self, i: usize) -> &[u32] {
        let v = self.vocab_size;
        &self.pair[upper_row_start(v, i)..][..v - i - 1]
    }

    /// `ln(p(i,j) / (p(i)·p(j)))` of pair `i < j` with count `cij`, or
    /// `None` when the pair never co-occurs (or a word never occurs).
    #[inline]
    fn pmi(&self, i: usize, j: usize, cij: u32) -> Option<f64> {
        let (df_i, df_j) = (self.df[i], self.df[j]);
        if cij == 0 || df_i == 0 || df_j == 0 {
            return None;
        }
        let dn = self.num_docs as f64;
        let (pi, pj, pij) = (df_i as f64 / dn, df_j as f64 / dn, cij as f64 / dn);
        Some((pij / (pi * pj)).ln())
    }
}

/// The base of a buffer whose rows (of a matrix, or runs of the packed
/// triangle) the pool's workers fill, each only the rows it was handed.
#[derive(Clone, Copy)]
struct SharedRows(*mut f32);
// SAFETY: dereferenced only for the disjoint rows `for_each_balanced`
// hands out (and, in `mirror_upper_triangle`, for reads of entries no
// worker writes). The buffers are allocated by the caller, so no worker
// allocates.
unsafe impl Send for SharedRows {}
unsafe impl Sync for SharedRows {}

impl SharedRows {
    /// Accessor, so closures capture the `Sync` wrapper, not the pointer.
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Run `f(i)` for every `i` in `0..n` on the worker pool, where item `i`
/// costs about `n − i` (a row of the upper triangle) or `i` (of the
/// lower): workers take pairs `{t, n − 1 − t}`, which cost the same, so
/// a contiguous split of the pairs is an even split of the work.
/// `pair_cost` is one pair's cost in multiply-add units, for the grain.
fn for_each_balanced(n: usize, pair_cost: usize, f: impl Fn(usize) + Sync) {
    // A logarithm costs some tens of multiply-adds.
    let grain = pool::min_items_for_grain(16 * pair_cost);
    pool::run_partitioned(n.div_ceil(2), grain, |pairs| {
        for t in pairs {
            f(t);
            if n - 1 - t != t {
                f(n - 1 - t);
            }
        }
    });
}

/// Side of the square tiles [`mirror_upper_triangle`] copies through: a
/// tile's source rows and destination rows (2 × 16 KB) stay in L1/L2.
const MIRROR_TILE: usize = 64;

/// Copy the strict upper triangle of the row-major `(v, v)` matrix at
/// `data` onto the lower triangle, one `MIRROR_TILE`-square tile at a
/// time; bands of `MIRROR_TILE` lower rows are split across the pool.
fn mirror_upper_triangle(data: SharedRows, v: usize) {
    for_each_balanced(v.div_ceil(MIRROR_TILE), v * MIRROR_TILE, |band| {
        let (j0, j1) = (band * MIRROR_TILE, ((band + 1) * MIRROR_TILE).min(v));
        for i0 in (0..j1).step_by(MIRROR_TILE) {
            for j in j0..j1 {
                for i in i0..(i0 + MIRROR_TILE).min(j) {
                    // SAFETY: `(j, i)` with `i < j` lies in this band's
                    // rows, which only this call writes; `(i, j)` is in
                    // the upper triangle, which nothing writes here.
                    unsafe { *data.get().add(j * v + i) = *data.get().add(i * v + j) };
                }
            }
        }
    });
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
