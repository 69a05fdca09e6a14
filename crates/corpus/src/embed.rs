//! Corpus-trained word embeddings: positive PMI factorisation.
//!
//! The paper uses GloVe vectors pretrained on Wikipedia. Those are not
//! available offline, so we train embeddings on the corpus itself by
//! factorising its PPMI co-occurrence matrix — Levy & Goldberg (2014) show
//! this is implicitly what GloVe/word2vec optimise, and the property the
//! models need (inner products tracking co-occurrence) is preserved.
//!
//! The PPMI comes from the one document-level co-occurrence count,
//! [`CoocAccumulator::to_ppmi`], as a sparse (CSR) symmetric matrix: no
//! dense `V × V` count or PPMI is ever built. The factorisation is a
//! symmetric truncated eigendecomposition by block subspace iteration:
//! `ITERS` products of the CSR PPMI with a `V × dim` block (the CSR
//! kernel, `ct_tensor::sgemm::sgemm_csr_dense`), each followed by a
//! modified Gram–Schmidt re-orthonormalisation, then one more product for
//! the Rayleigh quotients. The embeddings are the eigenvectors scaled by
//! `sqrt|λ|`. Every step is bitwise what the dense computation gives (the
//! CSR product skips only exact zeros; the blocked Gram–Schmidt keeps
//! each column's operations and their order), which the tests pin against
//! a dense reference.

use std::ops::Range;

use ct_tensor::Tensor;
use rand::Rng;

use crate::bow::BowCorpus;
use crate::npmi::CoocAccumulator;

/// Subspace iterations of [`embeddings_from_matrix`]: with the Rayleigh
/// product, each factorisation makes `ITERS + 1` products with the matrix.
pub const ITERS: usize = 12;

/// Top-`dim` symmetric eigenpairs of `m` (dense or CSR-backed) via block
/// subspace iteration. Returns `(eigvecs (v x dim), eigvals (dim))`,
/// eigenvalues sorted by magnitude descending.
pub fn symmetric_topk_eigs<R: Rng>(
    m: &Tensor,
    dim: usize,
    iters: usize,
    rng: &mut R,
) -> (Tensor, Vec<f32>) {
    let v = m.rows();
    assert_eq!(m.rows(), m.cols(), "matrix must be square");
    assert!(dim <= v, "requested more eigenpairs than dimensions");
    let mut x = Tensor::randn(v, dim, 1.0, rng);
    orthonormalize_columns(&mut x);
    for _ in 0..iters {
        x = m.matmul(&x);
        orthonormalize_columns(&mut x);
    }
    // Rayleigh quotients, every column's f64 sum over ascending rows.
    let mx = m.matmul(&x);
    let row = dim.max(1);
    let mut acc = vec![0.0f64; dim];
    for (xr, mr) in x.data().chunks_exact(row).zip(mx.data().chunks_exact(row)) {
        for ((a, &xv), &mv) in acc.iter_mut().zip(xr).zip(mr) {
            *a += (xv as f64) * (mv as f64);
        }
    }
    let eigvals: Vec<f32> = acc.iter().map(|&a| a as f32).collect();
    // Sort columns by |eigenvalue| descending.
    let mut order: Vec<usize> = (0..dim).collect();
    order.sort_by(|&a, &b| {
        eigvals[b]
            .abs()
            .partial_cmp(&eigvals[a].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let vals = order.iter().map(|&c| eigvals[c]).collect();
    let mut xs = Tensor::zeros(v, dim);
    for (dst, src) in xs
        .data_mut()
        .chunks_exact_mut(row)
        .zip(x.data().chunks_exact(row))
    {
        for (d, &old_c) in dst.iter_mut().zip(&order) {
            *d = src[old_c];
        }
    }
    (xs, vals)
}

/// Columns [`orthonormalize_columns`] carries side by side: eight `f64`
/// sums, one AVX-512 vector or four SSE2 ones.
const MGS_BLOCK: usize = 8;

/// Modified Gram–Schmidt on the columns of the row-major `x`, blocked by
/// columns. Each block of `MGS_BLOCK` columns first projects out every
/// finished column `p` before it, in ascending `p`, with the block's dot
/// products accumulated side by side in one pass over the rows; the block
/// then finishes its own triangle, normalising each column and projecting
/// it out of the block's later columns. Every column still sees exactly
/// the unblocked algorithm's operations in its order — per earlier column
/// an `f64` dot from `0.0` over ascending rows, rounded to `f32`, then
/// `x − dot·xp`; then the `f64` sum of squares, `sqrt`, `max(1e-12)` and a
/// divide — so the result is bitwise the column-at-a-time one.
pub fn orthonormalize_columns(x: &mut Tensor) {
    let cols = x.cols();
    if cols == 0 {
        return;
    }
    let data = x.data_mut();
    for c0 in (0..cols).step_by(MGS_BLOCK) {
        let c1 = (c0 + MGS_BLOCK).min(cols);
        for p in 0..c0 {
            project_out(data, cols, p, c0..c1);
        }
        for p in c0..c1 {
            normalize_column(data, cols, p);
            project_out(data, cols, p, p + 1..c1);
        }
    }
}

/// Subtract from each column in `block` its projection on column `p`.
fn project_out(data: &mut [f32], cols: usize, p: usize, block: Range<usize>) {
    match block.len() {
        0 => {}
        1 => project_out_w::<1>(data, cols, p, block.start),
        2 => project_out_w::<2>(data, cols, p, block.start),
        3 => project_out_w::<3>(data, cols, p, block.start),
        4 => project_out_w::<4>(data, cols, p, block.start),
        5 => project_out_w::<5>(data, cols, p, block.start),
        6 => project_out_w::<6>(data, cols, p, block.start),
        7 => project_out_w::<7>(data, cols, p, block.start),
        8 => project_out_w::<8>(data, cols, p, block.start),
        _ => unreachable!("blocks are at most MGS_BLOCK wide"),
    }
}

/// [`project_out`] on the `W` columns from `c0`: `W` independent `f64`
/// dot products over ascending rows, then the `f32` updates.
fn project_out_w<const W: usize>(data: &mut [f32], cols: usize, p: usize, c0: usize) {
    let mut dot = [0.0f64; W];
    for row in data.chunks_exact(cols) {
        let xp = row[p] as f64;
        let xc: &[f32; W] = row[c0..c0 + W].try_into().unwrap();
        for (d, &xc) in dot.iter_mut().zip(xc) {
            *d += (xc as f64) * xp;
        }
    }
    let dot = dot.map(|d| d as f32);
    for row in data.chunks_exact_mut(cols) {
        let xp = row[p];
        let xc: &mut [f32; W] = (&mut row[c0..c0 + W]).try_into().unwrap();
        for (x, &d) in xc.iter_mut().zip(&dot) {
            *x -= d * xp;
        }
    }
}

/// Scale column `c` to unit length (a zero column stays zero).
fn normalize_column(data: &mut [f32], cols: usize, c: usize) {
    let mut norm = 0.0f64;
    for row in data.chunks_exact(cols) {
        norm += (row[c] as f64).powi(2);
    }
    let norm = (norm.sqrt() as f32).max(1e-12);
    for row in data.chunks_exact_mut(cols) {
        row[c] /= norm;
    }
}

/// Train `dim`-dimensional word embeddings from the corpus' PPMI matrix:
/// `emb = U * sqrt(|Λ|)`, rows are word vectors.
pub fn train_embeddings<R: Rng>(corpus: &BowCorpus, dim: usize, rng: &mut R) -> Tensor {
    let mut cooc = CoocAccumulator::new(corpus.vocab_size());
    cooc.add_corpus(corpus);
    embeddings_from_matrix(&Tensor::from_csr(cooc.to_ppmi()), dim, rng)
}

/// Factorise a symmetric association matrix (dense or CSR-backed, such as
/// [`CoocAccumulator::to_ppmi`]'s) into `dim`-dimensional embeddings.
pub fn embeddings_from_matrix<R: Rng>(m: &Tensor, dim: usize, rng: &mut R) -> Tensor {
    let (mut emb, vals) = symmetric_topk_eigs(m, dim, ITERS, rng);
    let scale: Vec<f32> = vals.iter().map(|val| val.abs().sqrt()).collect();
    for row in emb.data_mut().chunks_exact_mut(dim.max(1)) {
        for (x, &s) in row.iter_mut().zip(&scale) {
            *x *= s;
        }
    }
    emb
}

/// Degrade embeddings to simulate *out-of-domain* pretrained vectors.
///
/// The paper uses GloVe pretrained on Wikipedia — not on the evaluation
/// corpus — so the embeddings only partially reflect the corpus'
/// co-occurrence structure. PPMI factorisation of the training corpus is
/// instead perfectly in-domain, which makes every embedding-driven decoder
/// (ETM/NSTM/WeTe/NTM-R) unrealistically strong. Blending with isotropic
/// noise restores the out-of-domain character: `noise_rel` is the noise
/// std relative to the mean row norm (0 = untouched, ~1 = mostly noise).
pub fn degrade_embeddings<R: Rng>(mut emb: Tensor, noise_rel: f32, rng: &mut R) -> Tensor {
    if noise_rel <= 0.0 {
        return emb;
    }
    let mean_norm = {
        let mut acc = 0.0f64;
        for r in 0..emb.rows() {
            acc += emb
                .row(r)
                .iter()
                .map(|&v| (v as f64).powi(2))
                .sum::<f64>()
                .sqrt();
        }
        (acc / emb.rows().max(1) as f64) as f32
    };
    // Per-element std chosen so the noise *row norm* is `noise_rel` times
    // the mean signal row norm.
    let per_elem = mean_norm * noise_rel / (emb.cols() as f32).sqrt();
    let noise = Tensor::randn(emb.rows(), emb.cols(), per_elem, rng);
    emb.add_assign(&noise);
    emb
}

/// Cosine similarity between two embedding rows.
pub fn cosine(emb: &Tensor, i: usize, j: usize) -> f32 {
    let (a, b) = (emb.row(i), emb.row(j));
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += (x as f64) * (y as f64);
        na += (x as f64) * (x as f64);
        nb += (y as f64) * (y as f64);
    }
    (dot / (na.sqrt() * nb.sqrt()).max(1e-12)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bow::SparseDoc;
    use crate::vocab::Vocab;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clustered_corpus() -> BowCorpus {
        // Two hard clusters: words 0-2 co-occur, words 3-5 co-occur.
        let vocab = Vocab::from_words((0..6).map(|i| format!("w{i}")));
        let mut c = BowCorpus::new(vocab);
        for _ in 0..30 {
            c.docs.push(SparseDoc::from_tokens(&[0, 1, 2]));
            c.docs.push(SparseDoc::from_tokens(&[3, 4, 5]));
            c.docs.push(SparseDoc::from_tokens(&[0, 2]));
            c.docs.push(SparseDoc::from_tokens(&[4, 5]));
        }
        c
    }

    /// A generated corpus whose vocabulary outgrows the widest embedding
    /// tested (300, `load_gen`'s), so 300 < V and the Gram–Schmidt blocks
    /// of every tested dim but 8, 16, 24 and 64 are ragged.
    fn generated_corpus() -> BowCorpus {
        let spec = crate::SynthSpec {
            vocab_size: 640,
            num_topics: 8,
            num_docs: 300,
            avg_doc_len: 40.0,
            ..Default::default()
        };
        let c = crate::generate(&spec, &mut StdRng::seed_from_u64(5)).corpus;
        assert!(c.vocab_size() >= 600, "vocab {}", c.vocab_size());
        c
    }

    fn cooc(corpus: &BowCorpus) -> CoocAccumulator {
        let mut acc = CoocAccumulator::new(corpus.vocab_size());
        acc.add_corpus(corpus);
        acc
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (idx, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {idx}: {x} vs {y}"
            );
        }
    }

    /// The dense implementation the CSR path replaced, kept verbatim as
    /// the bitwise reference: a dense `V × V` pair count, a dense PPMI,
    /// dense products, and column-at-a-time Gram–Schmidt through
    /// `get`/`set`; plus the NPMI fill with its column-strided stores.
    mod reference {
        use super::*;

        /// Dense strict-upper pair counts `pair[i * v + j]` and document
        /// frequencies.
        fn counts(corpus: &BowCorpus) -> (Vec<u32>, Vec<u32>) {
            let v = corpus.vocab_size();
            let mut pair = vec![0u32; v * v];
            let mut df = vec![0u32; v];
            for doc in &corpus.docs {
                let ids = doc.ids();
                for (a, &i) in ids.iter().enumerate() {
                    df[i as usize] += 1;
                    let row = i as usize * v;
                    for &j in &ids[a + 1..] {
                        pair[row + j as usize] += 1;
                    }
                }
            }
            (pair, df)
        }

        pub fn ppmi_matrix(corpus: &BowCorpus, shift: f32) -> Tensor {
            let v = corpus.vocab_size();
            let d = corpus.num_docs() as f64;
            let (pair, df) = counts(corpus);
            let mut m = Tensor::zeros(v, v);
            let data = m.data_mut();
            for i in 0..v {
                let pi = df[i] as f64 / d;
                for j in (i + 1)..v {
                    let cij = pair[i * v + j];
                    if cij == 0 || df[j] == 0 || pi == 0.0 {
                        continue;
                    }
                    let pj = df[j] as f64 / d;
                    let pij = cij as f64 / d;
                    let val = ((pij / (pi * pj)).ln() as f32 - shift).max(0.0);
                    data[i * v + j] = val;
                    data[j * v + i] = val;
                }
            }
            m
        }

        pub fn npmi_fill(corpus: &BowCorpus) -> Vec<f32> {
            let v = corpus.vocab_size();
            let dn = corpus.num_docs() as f64;
            let (pair, df) = counts(corpus);
            let mut data = vec![0.0f32; v * v];
            for i in 0..v {
                data[i * v + i] = 1.0;
                let pi = df[i] as f64 / dn;
                for j in (i + 1)..v {
                    let cij = pair[i * v + j];
                    let val = if cij == 0 || pi == 0.0 || df[j] == 0 {
                        -1.0
                    } else {
                        let pj = df[j] as f64 / dn;
                        let pij = cij as f64 / dn;
                        let pmi = (pij / (pi * pj)).ln();
                        let denom = -pij.ln();
                        if denom <= 0.0 {
                            1.0
                        } else {
                            (pmi / denom).clamp(-1.0, 1.0)
                        }
                    };
                    data[i * v + j] = val as f32;
                    data[j * v + i] = val as f32;
                }
            }
            data
        }

        fn orthonormalize_columns(x: &mut Tensor) {
            let (rows, cols) = x.shape();
            for c in 0..cols {
                for p in 0..c {
                    let mut dot = 0.0f64;
                    for r in 0..rows {
                        dot += (x.get(r, c) as f64) * (x.get(r, p) as f64);
                    }
                    let dot = dot as f32;
                    for r in 0..rows {
                        let v = x.get(r, c) - dot * x.get(r, p);
                        x.set(r, c, v);
                    }
                }
                let mut norm = 0.0f64;
                for r in 0..rows {
                    norm += (x.get(r, c) as f64).powi(2);
                }
                let norm = (norm.sqrt() as f32).max(1e-12);
                for r in 0..rows {
                    x.set(r, c, x.get(r, c) / norm);
                }
            }
        }

        fn symmetric_topk_eigs<R: Rng>(
            m: &Tensor,
            dim: usize,
            iters: usize,
            rng: &mut R,
        ) -> (Tensor, Vec<f32>) {
            let v = m.rows();
            let mut x = Tensor::randn(v, dim, 1.0, rng);
            orthonormalize_columns(&mut x);
            for _ in 0..iters {
                x = m.matmul(&x);
                orthonormalize_columns(&mut x);
            }
            let mx = m.matmul(&x);
            let mut eigvals = vec![0.0f32; dim];
            for (c, ev) in eigvals.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for r in 0..v {
                    acc += (x.get(r, c) as f64) * (mx.get(r, c) as f64);
                }
                *ev = acc as f32;
            }
            let mut order: Vec<usize> = (0..dim).collect();
            order.sort_by(|&a, &b| {
                eigvals[b]
                    .abs()
                    .partial_cmp(&eigvals[a].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut xs = Tensor::zeros(v, dim);
            let mut vals = vec![0.0f32; dim];
            for (new_c, &old_c) in order.iter().enumerate() {
                vals[new_c] = eigvals[old_c];
                for r in 0..v {
                    xs.set(r, new_c, x.get(r, old_c));
                }
            }
            (xs, vals)
        }

        pub fn train_embeddings<R: Rng>(corpus: &BowCorpus, dim: usize, rng: &mut R) -> Tensor {
            let ppmi = ppmi_matrix(corpus, 0.0);
            let (mut emb, vals) = symmetric_topk_eigs(&ppmi, dim, 12, rng);
            for (c, &val) in vals.iter().enumerate().take(dim) {
                let s = val.abs().sqrt();
                for r in 0..emb.rows() {
                    let v = emb.get(r, c) * s;
                    emb.set(r, c, v);
                }
            }
            emb
        }
    }

    #[test]
    fn train_embeddings_bitwise_matches_dense_reference() {
        for (name, c) in [
            ("clustered", clustered_corpus()),
            ("generated", generated_corpus()),
        ] {
            for dim in [1, 3, 8, 16, 24, 64, 300] {
                if dim > c.vocab_size() {
                    continue;
                }
                let (mut rng, mut rng_ref) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
                let got = train_embeddings(&c, dim, &mut rng);
                let want = reference::train_embeddings(&c, dim, &mut rng_ref);
                assert_eq!(got.shape(), want.shape());
                assert_bits(got.data(), want.data(), &format!("{name} dim {dim}"));
                assert_eq!(
                    rng.gen::<u64>(),
                    rng_ref.gen::<u64>(),
                    "{name} dim {dim}: RNG position differs"
                );
            }
        }
    }

    #[test]
    fn csr_ppmi_is_the_reference_nonzeros() {
        for c in [clustered_corpus(), generated_corpus()] {
            let dense = reference::ppmi_matrix(&c, 0.0);
            let csr = cooc(&c).to_ppmi();
            assert!(csr.values().iter().all(|&x| x > 0.0), "stored a zero");
            let stored = dense.data().iter().filter(|&&x| x != 0.0).count();
            assert_eq!(csr.nnz(), stored);
            assert_bits(
                Tensor::from_csr(csr).to_dense().data(),
                dense.data(),
                "ppmi",
            );
        }
    }

    #[test]
    fn to_npmi_bitwise_matches_the_column_strided_fill() {
        for c in [clustered_corpus(), generated_corpus()] {
            let got = cooc(&c).to_npmi();
            assert_bits(got.matrix().data(), &reference::npmi_fill(&c), "npmi");
        }
    }

    #[test]
    fn ppmi_nonnegative_and_symmetric() {
        let c = clustered_corpus();
        let m = Tensor::from_csr(cooc(&c).to_ppmi());
        for i in 0..6 {
            for j in 0..6 {
                assert!(m.get(i, j) >= 0.0);
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        // Cross-cluster pairs never co-occur: PPMI 0.
        assert_eq!(m.get(0, 3), 0.0);
        assert!(m.get(0, 1) > 0.0);
    }

    #[test]
    fn subspace_iteration_finds_dominant_eigenpair() {
        // Known spectrum: diag(5, 2, 1).
        let m = Tensor::from_vec(vec![5.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0], 3, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let (u, vals) = symmetric_topk_eigs(&m, 2, 30, &mut rng);
        assert!((vals[0] - 5.0).abs() < 1e-2, "vals {vals:?}");
        assert!((vals[1] - 2.0).abs() < 1e-2, "vals {vals:?}");
        // Dominant eigenvector is e0 up to sign.
        assert!(u.get(0, 0).abs() > 0.99);
    }

    #[test]
    fn orthonormalize_gives_orthonormal_columns() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut x = Tensor::randn(10, 4, 1.0, &mut rng);
        orthonormalize_columns(&mut x);
        for a in 0..4 {
            for b in 0..4 {
                let mut dot = 0.0f32;
                for r in 0..10 {
                    dot += x.get(r, a) * x.get(r, b);
                }
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-4, "col {a}·{b} = {dot}");
            }
        }
    }

    #[test]
    fn degrade_embeddings_scales_noise_to_row_norm() {
        let mut rng = StdRng::seed_from_u64(11);
        let emb = Tensor::randn(200, 64, 1.0, &mut rng);
        let noisy = degrade_embeddings(emb.clone(), 0.5, &mut rng);
        // Mean perturbation norm should be ~0.5x the mean signal norm.
        let mean_norm = |t: &Tensor| -> f64 {
            (0..t.rows())
                .map(|r| {
                    t.row(r)
                        .iter()
                        .map(|&v| (v as f64).powi(2))
                        .sum::<f64>()
                        .sqrt()
                })
                .sum::<f64>()
                / t.rows() as f64
        };
        let signal = mean_norm(&emb);
        let diff = noisy.zip(&emb, |a, b| a - b);
        let perturb = mean_norm(&diff);
        let ratio = perturb / signal;
        assert!((ratio - 0.5).abs() < 0.08, "perturbation ratio {ratio}");
        // Structure partially survives: cosine to the original stays high.
        let mut mean_cos = 0.0;
        for r in 0..emb.rows() {
            let joined = Tensor::from_vec(
                emb.row(r).iter().chain(noisy.row(r)).copied().collect(),
                2,
                64,
            );
            mean_cos += cosine(&joined, 0, 1) as f64 / emb.rows() as f64;
        }
        assert!(mean_cos > 0.75, "mean cosine {mean_cos}");
    }

    #[test]
    fn degrade_zero_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(12);
        let emb = Tensor::randn(5, 4, 1.0, &mut rng);
        let same = degrade_embeddings(emb.clone(), 0.0, &mut rng);
        assert_eq!(emb, same);
    }

    #[test]
    fn embeddings_cluster_cooccurring_words() {
        let c = clustered_corpus();
        let mut rng = StdRng::seed_from_u64(3);
        let emb = train_embeddings(&c, 3, &mut rng);
        assert_eq!(emb.shape(), (6, 3));
        let within = cosine(&emb, 0, 1);
        let across = cosine(&emb, 0, 4);
        assert!(
            within > across + 0.3,
            "within {within} should beat across {across}"
        );
    }
}
