//! Similarity kernels `K(·,·)` for the contrastive regularizer (§IV-A).
//!
//! The paper's choice is the corpus-precomputed NPMI matrix — the positive
//! pairs then *directly* optimize the coherence metric. The
//! `ContraTopic-I` ablation replaces it with word-embedding inner products
//! (the NTM-R-style kernel), which the paper shows is weaker.

use std::sync::Arc;

use ct_corpus::NpmiMatrix;
use ct_tensor::sgemm::PackedB;
use ct_tensor::Tensor;

/// A fixed (non-trainable) word-pair similarity matrix `(V, V)`.
///
/// The matrix is kept only in the blocked SGEMM kernel's packed layout
/// ([`PackedB`]): every regularizer step multiplies by it, so it is packed
/// once here instead of once per product, and no row-major copy is held
/// beside it.
#[derive(Clone)]
pub struct SimilarityKernel {
    matrix: Arc<PackedB>,
    name: &'static str,
}

impl SimilarityKernel {
    /// The paper's kernel: precomputed NPMI on the *training* corpus.
    pub fn npmi(npmi: &NpmiMatrix) -> Self {
        Self::packed(npmi.matrix(), "npmi")
    }

    /// ContraTopic-I ablation: cosine similarity of word embeddings.
    pub fn embedding_inner(embeddings: &Tensor) -> Self {
        // Normalize rows, then a single V x V gram matrix.
        let mut e = embeddings.clone();
        for r in 0..e.rows() {
            let row = e.row_mut(r);
            let n = row.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt() as f32;
            if n > 1e-8 {
                for v in row.iter_mut() {
                    *v /= n;
                }
            }
        }
        Self::packed(&e.matmul_nt(&e), "embedding-inner")
    }

    /// Arbitrary symmetric similarity matrix.
    pub fn custom(matrix: Tensor, name: &'static str) -> Self {
        assert_eq!(matrix.rows(), matrix.cols(), "kernel must be square");
        Self::packed(&matrix, name)
    }

    fn packed(matrix: &Tensor, name: &'static str) -> Self {
        Self {
            matrix: Arc::new(PackedB::pack(matrix.rows(), matrix.cols(), matrix.data())),
            name,
        }
    }

    /// The `(V, V)` similarity matrix, packed (shared; never receives
    /// gradients).
    pub fn matrix(&self) -> &Arc<PackedB> {
        &self.matrix
    }

    /// Side length `V` of the similarity matrix.
    pub fn vocab_size(&self) -> usize {
        self.matrix.rows()
    }

    /// Short kernel label (`"npmi"` or `"inner"`), used in telemetry.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Memory footprint of the dense kernel in bytes (the paper's §V-E
    /// `O(V^2)` analysis), including the packed layout's padding of `V` up
    /// to a whole column strip.
    pub fn memory_bytes(&self) -> usize {
        self.matrix.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_corpus::{BowCorpus, SparseDoc, Vocab};

    #[test]
    fn npmi_kernel_wraps_matrix() {
        let vocab = Vocab::from_words(["a", "b", "c"]);
        let mut c = BowCorpus::new(vocab);
        c.docs.push(SparseDoc::from_tokens(&[0, 1]));
        c.docs.push(SparseDoc::from_tokens(&[0, 1]));
        c.docs.push(SparseDoc::from_tokens(&[2]));
        let n = NpmiMatrix::from_corpus(&c);
        let k = SimilarityKernel::npmi(&n);
        assert_eq!(k.vocab_size(), 3);
        assert_eq!(k.name(), "npmi");
        assert!(k.matrix().get(0, 1) > 0.5);
        // Packed: three rows of one zero-padded 32-column strip.
        assert_eq!(k.memory_bytes(), 3 * 32 * 4);
    }

    #[test]
    fn embedding_kernel_is_cosine() {
        let emb = Tensor::from_vec(vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0], 3, 2);
        let k = SimilarityKernel::embedding_inner(&emb);
        // Rows 0 and 1 are parallel; row 2 orthogonal.
        assert!((k.matrix().get(0, 1) - 1.0).abs() < 1e-5);
        assert!(k.matrix().get(0, 2).abs() < 1e-5);
        assert!((k.matrix().get(2, 2) - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn custom_rejects_non_square() {
        let _ = SimilarityKernel::custom(Tensor::zeros(2, 3), "bad");
    }
}
