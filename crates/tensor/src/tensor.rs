//! Row-major `f32` tensor with pluggable storage.
//!
//! The tensor type is deliberately simple: rank 1 or 2 (rank-2 covers every
//! model in this workspace; rank-1 is treated as a row vector where
//! convenient), with one of two storage backends behind the same API:
//!
//! - **Dense** — a contiguous row-major `Vec<f32>`. Every tensor op works
//!   on dense storage; hot paths operate on `&[f32]` slices so the
//!   vectorized kernels in [`crate::simd`] apply.
//! - **CSR** — a [`CsrMatrix`] holding only nonzeros. This backend exists
//!   for bag-of-words batches, which are >90% zeros: the corpus layer
//!   builds them directly from sparse documents ([`Tensor::from_csr`]) and
//!   the matmul entry points route them to the zero-skipping CSR kernels.
//!   Only the operations a batch actually meets on the training/serving
//!   hot path are implemented for CSR (`matmul`, `matmul_tn`, `clone`,
//!   `normalize_rows_l1`, `sum`, `get`, `has_non_finite`); anything else
//!   panics with a message telling the caller to densify first. The CSR
//!   results are bitwise identical to the dense computation — see
//!   [`crate::csr`] for why zero-skipping preserves that.

use std::fmt;
use std::ops::Range;

use rand::distributions::Distribution;
use rand::Rng;

use crate::csr::CsrMatrix;

/// Process-wide count of matmuls dispatched to the CSR kernels — the
/// observability hook CI uses to assert the sparse path is actually
/// selected on a sparse workload (mirrors `masks_built` in ct-core).
static CSR_MATMULS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Cumulative number of matrix products routed to the CSR kernels since
/// start-up (the `A·B` forward, the `Aᵀ·B` gradient form, and the three
/// sparse products of `Var::bow_log_likelihood`).
pub fn csr_matmuls() -> u64 {
    CSR_MATMULS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Count one product routed to a CSR kernel.
pub(crate) fn count_csr_matmul() {
    CSR_MATMULS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// Indices of the `k` largest values of `row` (all of them if `k`
/// exceeds its length), descending, ties to the lower index. NaN ranks
/// below every number, so the order is total and the result
/// deterministic for any input. Selects the top `k` before sorting them,
/// so a short list out of a long row costs one linear pass.
pub fn top_k_indices(row: &[f32], k: usize) -> Vec<usize> {
    let k = k.min(row.len());
    if k == 0 {
        return Vec::new();
    }
    let descending = |&a: &usize, &b: &usize| {
        row[b]
            .partial_cmp(&row[a])
            .unwrap_or_else(|| row[a].is_nan().cmp(&row[b].is_nan()))
            .then(a.cmp(&b))
    };
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.select_nth_unstable_by(k - 1, descending);
    idx.truncate(k);
    idx.sort_unstable_by(descending);
    idx
}

/// Elements per `f64` partial in [`Tensor::sum`].
const SUM_CHUNK: usize = 4096;

/// The grouping of [`Tensor::sum`]: `0..len` is cut into `SUM_CHUNK`-element
/// chunks, `chunk_sum` returns each chunk's `f64` partial, and the partials
/// are added in ascending order from `+0.0`. Every sum that must match
/// `Tensor::sum` bit for bit (the dense sum itself, and the fused
/// bag-of-words likelihood, which sums only its nonzero terms) goes
/// through here, so the grouping cannot drift between them.
pub(crate) fn chunked_sum(len: usize, mut chunk_sum: impl FnMut(Range<usize>) -> f64) -> f32 {
    let mut acc = 0.0f64;
    for start in (0..len).step_by(SUM_CHUNK) {
        acc += chunk_sum(start..len.min(start + SUM_CHUNK));
    }
    acc as f32
}

/// `Tensor::sum` of the dense `(rows, cols)` image of `pattern` holding
/// `terms[p]` at its `p`-th stored position and zeros elsewhere, computed
/// from the stored terms alone: the terms of each chunk of the dense flat
/// index are summed in index order (CSR order is row-major with ascending
/// columns). A skipped zero is an exact `±0.0` in its chunk's partial, and
/// can at most turn a zero partial's sign, which adding it to an
/// accumulator started at `+0.0` erases, so the result is bitwise the
/// dense sum's.
pub(crate) fn sum_at_nonzeros(pattern: &CsrMatrix, terms: &[f32]) -> f32 {
    assert_eq!(terms.len(), pattern.nnz(), "one term per stored entry");
    let (row_ptr, col_idx) = (pattern.row_ptr(), pattern.col_idx());
    let cols = pattern.cols();
    let (mut next, mut row) = (0usize, 0usize);
    chunked_sum(pattern.rows() * cols, |chunk| {
        let start = next;
        while next < terms.len() {
            while next >= row_ptr[row + 1] as usize {
                row += 1;
            }
            if row * cols + col_idx[next] as usize >= chunk.end {
                break;
            }
            next += 1;
        }
        terms[start..next].iter().map(|&t| t as f64).sum::<f64>()
    })
}

/// Backing storage of a [`Tensor`].
enum Storage {
    /// Contiguous row-major values, `rows * cols` of them.
    Dense(Vec<f32>),
    /// Compressed sparse rows; zeros are implicit.
    Csr(CsrMatrix),
}

/// A row-major `f32` tensor of rank 1 or 2, dense or CSR-backed.
pub struct Tensor {
    storage: Storage,
    rows: usize,
    cols: usize,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let storage = match &self.storage {
            Storage::Dense(d) => Storage::Dense(crate::arena::take_copied(d)),
            Storage::Csr(m) => Storage::Csr(m.clone()),
        };
        Self {
            storage,
            rows: self.rows,
            cols: self.cols,
        }
    }
}

impl PartialEq for Tensor {
    /// Element-for-element equality (f32 `==` semantics). A CSR tensor and
    /// a dense tensor compare equal when they describe the same matrix.
    fn eq(&self, other: &Self) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        match (&self.storage, &other.storage) {
            (Storage::Dense(a), Storage::Dense(b)) => a == b,
            (Storage::Csr(a), Storage::Csr(b)) if a == b => true,
            _ => (0..self.rows).all(|r| (0..self.cols).all(|c| self.get(r, c) == other.get(r, c))),
        }
    }
}

impl Tensor {
    /// Create a dense tensor from raw data with the given `(rows, cols)`
    /// shape.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape ({rows}, {cols})",
            data.len()
        );
        Self {
            storage: Storage::Dense(data),
            rows,
            cols,
        }
    }

    /// Wrap a CSR matrix as a sparse-backed tensor.
    pub fn from_csr(m: CsrMatrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        Self {
            storage: Storage::Csr(m),
            rows,
            cols,
        }
    }

    /// A `1 x n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(data, 1, n)
    }

    /// A `n x 1` column vector.
    pub fn col_vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(data, n, 1)
    }

    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            storage: Storage::Dense(crate::arena::take_zeroed(rows * cols)),
            rows,
            cols,
        }
    }

    /// All-ones tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut data = crate::arena::take_zeroed(rows * cols);
        if value != 0.0 {
            data.fill(value);
        }
        Self::from_vec(data, rows, cols)
    }

    /// A `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(vec![value], 1, 1)
    }

    /// Standard-normal random tensor (mean 0, std `std`).
    pub fn randn<R: Rng>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        let normal = rand::distributions::Standard;
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            // Box-Muller from two uniforms; rand's StandardNormal lives in
            // rand_distr which is outside the allowed crate set.
            let u1: f32 = f32::max(normal.sample(rng), 1e-12);
            let u2: f32 = normal.sample(rng);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            data.push(z * std);
        }
        Self::from_vec(data, rows, cols)
    }

    /// Uniform random tensor on `[lo, hi)`.
    pub fn rand_uniform<R: Rng>(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Self::from_vec(data, rows, cols)
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.dense_mut()[i * n + i] = 1.0;
        }
        t
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements (including implicit zeros for CSR).
    #[inline]
    pub fn numel(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether this tensor is CSR-backed.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self.storage, Storage::Csr(_))
    }

    /// The CSR backing matrix, when this tensor is sparse.
    #[inline]
    pub fn csr(&self) -> Option<&CsrMatrix> {
        match &self.storage {
            Storage::Csr(m) => Some(m),
            Storage::Dense(_) => None,
        }
    }

    /// Materialize a dense copy (identity copy for dense tensors).
    pub fn to_dense(&self) -> Tensor {
        match &self.storage {
            Storage::Dense(_) => self.clone(),
            Storage::Csr(m) => {
                let mut data = crate::arena::take_zeroed(self.rows * self.cols);
                m.write_dense(&mut data);
                Tensor::from_vec(data, self.rows, self.cols)
            }
        }
    }

    /// Dense storage or a clear panic: ops that have no CSR implementation
    /// funnel through here so a sparse batch reaching an unsupported op
    /// fails loudly instead of silently densifying on a hot path.
    #[inline]
    fn dense(&self) -> &[f32] {
        match &self.storage {
            Storage::Dense(d) => d,
            Storage::Csr(_) => panic!(
                "operation requires dense storage but tensor ({}, {}) is CSR-backed; \
                 call to_dense() first",
                self.rows, self.cols
            ),
        }
    }

    #[inline]
    fn dense_mut(&mut self) -> &mut Vec<f32> {
        match &mut self.storage {
            Storage::Dense(d) => d,
            Storage::Csr(_) => panic!(
                "operation requires dense storage but tensor ({}, {}) is CSR-backed; \
                 call to_dense() first",
                self.rows, self.cols
            ),
        }
    }

    /// Immutable view of the underlying dense storage (row-major).
    ///
    /// # Panics
    /// Panics if the tensor is CSR-backed.
    #[inline]
    pub fn data(&self) -> &[f32] {
        self.dense()
    }

    /// Mutable view of the underlying dense storage (row-major).
    ///
    /// # Panics
    /// Panics if the tensor is CSR-backed.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.dense_mut()
    }

    /// Consume the tensor, returning its value buffer: the full dense
    /// storage, or — for CSR tensors — the (shorter) nonzero-values buffer.
    /// Either way the result is suitable for the recycling arena.
    pub fn into_vec(self) -> Vec<f32> {
        match self.storage {
            Storage::Dense(d) => d,
            Storage::Csr(m) => m.into_values(),
        }
    }

    /// Element accessor (CSR lookups binary-search the row).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        match &self.storage {
            Storage::Dense(d) => d[r * self.cols + c],
            Storage::Csr(m) => m.get(r, c),
        }
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        let cols = self.cols;
        self.dense_mut()[r * cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.dense()[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let cols = self.cols;
        &mut self.dense_mut()[r * cols..(r + 1) * cols]
    }

    /// Materialized transpose.
    pub fn transposed(&self) -> Tensor {
        let src = self.dense();
        let mut out = Tensor::zeros(self.cols, self.rows);
        let dst = out.dense_mut();
        // Blocked transpose keeps both streams cache-friendly.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        dst[c * self.rows + r] = src[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Map each element through `f`, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = crate::arena::take_copied(self.dense());
        for x in &mut data {
            *x = f(*x);
        }
        Tensor::from_vec(data, self.rows, self.cols)
    }

    /// Elementwise binary combination; shapes must match.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        let mut data = crate::arena::take_copied(self.dense());
        for (a, &b) in data.iter_mut().zip(other.dense()) {
            *a = f(*a, b);
        }
        Tensor::from_vec(data, self.rows, self.cols)
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.dense_mut().iter_mut().zip(other.dense()) {
            *a += b;
        }
    }

    /// `self += alpha * other` elementwise (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        crate::simd::axpy(self.dense_mut(), alpha, other.dense());
    }

    /// Multiply all elements by `alpha`.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for a in self.dense_mut() {
            *a *= alpha;
        }
    }

    /// Fill with `value`.
    pub fn fill(&mut self, value: f32) {
        self.dense_mut().fill(value);
    }

    /// Sum of all elements. For CSR storage the implicit zeros contribute
    /// nothing and the stored values are summed in row-major order — for
    /// the non-negative bag-of-words data CSR carries, this is bitwise
    /// identical to the dense sum (adding `+0.0` never changes a
    /// non-negative accumulator).
    pub fn sum(&self) -> f32 {
        let vals: &[f32] = match &self.storage {
            Storage::Dense(d) => d,
            Storage::Csr(m) => m.values(),
        };
        // Chunked accumulation for better float accuracy than a single fold.
        chunked_sum(vals.len(), |chunk| {
            vals[chunk].iter().map(|&x| x as f64).sum::<f64>()
        })
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element (NaN-safe: NaNs are ignored unless all are NaN).
    pub fn max(&self) -> f32 {
        self.dense()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, |a, b| if b > a { b } else { a })
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.dense()
            .iter()
            .copied()
            .fold(f32::INFINITY, |a, b| if b < a { b } else { a })
    }

    /// Index of the maximum element of row `r`.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Indices of the `k` largest elements of row `r`, in
    /// [`top_k_indices`] order.
    pub fn top_k_row(&self, r: usize, k: usize) -> Vec<usize> {
        top_k_indices(self.row(r), k)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.dense()
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Dot product of two same-shaped tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "dot numel mismatch");
        self.dense()
            .iter()
            .zip(other.dense())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum::<f64>() as f32
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        let vals: &[f32] = match &self.storage {
            Storage::Dense(d) => d,
            Storage::Csr(m) => m.values(),
        };
        vals.iter().any(|x| !x.is_finite())
    }

    /// Row-wise softmax with temperature, numerically stabilized.
    pub fn softmax_rows(&self, temperature: f32) -> Tensor {
        let mut out = self.clone();
        out.softmax_rows_inplace(temperature);
        out
    }

    /// In-place row-wise softmax with temperature.
    pub fn softmax_rows_inplace(&mut self, temperature: f32) {
        let inv_t = 1.0 / temperature;
        let cols = self.cols;
        for row in self.dense_mut().chunks_exact_mut(cols.max(1)) {
            softmax_row_inplace(row, inv_t);
        }
    }

    /// Normalize each row to sum to one (L1). Rows summing to zero become
    /// uniform.
    ///
    /// On CSR storage this scales each row's stored values in place — for
    /// non-negative data the row sum over nonzeros is bitwise identical to
    /// the dense row sum, so the result matches the dense path exactly. A
    /// CSR tensor containing an all-zero row (an empty document) must
    /// become uniform, which CSR cannot represent: that rare case
    /// densifies first.
    pub fn normalize_rows_l1(&mut self) {
        if let Storage::Csr(m) = &mut self.storage {
            let any_zero_row = (0..m.rows()).any(|r| m.row(r).1.iter().sum::<f32>().abs() < 1e-12);
            if any_zero_row {
                *self = self.to_dense();
                // fall through to the dense path below
            } else {
                for r in 0..m.rows() {
                    let lo = m.row_ptr()[r] as usize;
                    let hi = m.row_ptr()[r + 1] as usize;
                    let vals = &mut m.values_mut()[lo..hi];
                    let s: f32 = vals.iter().sum();
                    let inv = 1.0 / s;
                    for v in vals {
                        *v *= inv;
                    }
                }
                return;
            }
        }
        let cols = self.cols;
        let rows = self.rows;
        let data = self.dense_mut();
        for r in 0..rows {
            let row = &mut data[r * cols..(r + 1) * cols];
            let s: f32 = row.iter().sum();
            if s.abs() < 1e-12 {
                let u = 1.0 / cols as f32;
                row.fill(u);
            } else {
                let inv = 1.0 / s;
                for v in row.iter_mut() {
                    *v *= inv;
                }
            }
        }
    }

    /// Matrix product `self @ other` using the blocked kernel. CSR-backed
    /// left operands go straight to the CSR kernel; mostly-zero dense left
    /// operands (bag-of-words batches that were materialized anyway) are
    /// detected and routed to the zero-skipping sparse kernel.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: ({}, {}) x ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        let b = other.dense();
        match &self.storage {
            Storage::Csr(m) => {
                count_csr_matmul();
                crate::sgemm::sgemm_csr_dense(m, other.cols, b, out.dense_mut());
            }
            Storage::Dense(a) => {
                if crate::sgemm::sparse_a_worthwhile(self.rows, self.cols, other.cols, a) {
                    crate::sgemm::sgemm_nn_sparse_a(
                        self.rows,
                        self.cols,
                        other.cols,
                        a,
                        b,
                        out.dense_mut(),
                    );
                } else {
                    crate::sgemm::sgemm_nn(self.rows, self.cols, other.cols, a, b, out.dense_mut());
                }
            }
        }
        out
    }

    /// Matrix product `self @ other.T`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: ({}, {}) x ({}, {})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.rows);
        crate::sgemm::sgemm_nt(
            self.rows,
            self.cols,
            other.rows,
            self.dense(),
            other.dense(),
            out.dense_mut(),
        );
        out
    }

    /// Matrix product `self.T @ other`. A CSR-backed `self` (the
    /// bag-of-words batch in the weight gradient `dW = Xᵀ·dY`) routes to
    /// the transposed CSR kernel.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}, {})^T x ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.cols, other.cols);
        let b = other.dense();
        match &self.storage {
            Storage::Csr(m) => {
                count_csr_matmul();
                crate::sgemm::sgemm_csr_t_dense(m, other.cols, b, out.dense_mut());
            }
            Storage::Dense(a) => {
                crate::sgemm::sgemm_tn(self.rows, self.cols, other.cols, a, b, out.dense_mut());
            }
        }
        out
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.storage {
            Storage::Dense(data) => {
                write!(f, "Tensor({}x{})[", self.rows, self.cols)?;
                let n = data.len().min(8);
                for (i, v) in data[..n].iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:.4}")?;
                }
                if data.len() > n {
                    write!(f, ", …")?;
                }
                write!(f, "]")
            }
            Storage::Csr(m) => write!(
                f,
                "Tensor({}x{}, csr, nnz={})",
                self.rows,
                self.cols,
                m.nnz()
            ),
        }
    }
}

/// Softmax of one row at temperature `1 / inv_t`, in place — the one row
/// kernel behind [`Tensor::softmax_rows`] and the relaxed subset sampler.
pub(crate) fn softmax_row_inplace(row: &mut [f32], inv_t: f32) {
    let mut m = f32::NEG_INFINITY;
    for &v in row.iter() {
        let v = v * inv_t;
        if v > m {
            m = v;
        }
    }
    let mut z = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v * inv_t - m).exp();
        z += *v;
    }
    let inv_z = 1.0 / z;
    for v in row.iter_mut() {
        *v *= inv_z;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_accessors() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.numel(), 12);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_panics_on_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0, 2.0, 3.0], 2, 2);
    }

    #[test]
    fn get_set_row() {
        let mut t = Tensor::zeros(2, 3);
        t.set(1, 2, 7.0);
        assert_eq!(t.get(1, 2), 7.0);
        assert_eq!(t.row(1), &[0.0, 0.0, 7.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::randn(7, 11, 1.0, &mut rng);
        let tt = t.transposed().transposed();
        assert_eq!(t, tt);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn(5, 5, 1.0, &mut rng);
        let i = Tensor::eye(5);
        let prod = a.matmul(&i);
        for (x, y) in a.data().iter().zip(prod.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_nt_tn_agree_with_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn(4, 6, 1.0, &mut rng);
        let b = Tensor::randn(5, 6, 1.0, &mut rng);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transposed());
        for (x, y) in via_nt.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-4);
        }
        let c = Tensor::randn(6, 4, 1.0, &mut rng);
        let d = Tensor::randn(6, 5, 1.0, &mut rng);
        let via_tn = c.matmul_tn(&d);
        let via_t2 = c.transposed().matmul(&d);
        for (x, y) in via_tn.data().iter().zip(via_t2.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_shift_invariant() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Tensor::randn(6, 9, 3.0, &mut rng);
        let s = t.softmax_rows(1.0);
        for r in 0..6 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        let shifted = t.map(|x| x + 100.0).softmax_rows(1.0);
        for (a, b) in s.data().iter().zip(shifted.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_temperature_sharpens() {
        let t = Tensor::row_vector(vec![1.0, 2.0, 3.0]);
        let soft = t.softmax_rows(1.0);
        let sharp = t.softmax_rows(0.1);
        assert!(sharp.get(0, 2) > soft.get(0, 2));
    }

    #[test]
    fn top_k_indices_descending_stable() {
        let row = [0.1, 0.5, 0.5, 0.3];
        assert_eq!(top_k_indices(&row, 3), vec![1, 2, 3]);
        assert_eq!(top_k_indices(&row, 10), vec![1, 2, 3, 0]);
        assert_eq!(top_k_indices(&row, 0), Vec::<usize>::new());
        // NaN ranks below every number; ±0 tie and go to the lower index.
        let row = [f32::NAN, 0.0, -0.0, 1.0, f32::NAN];
        assert_eq!(top_k_indices(&row, 5), vec![3, 1, 2, 0, 4]);
    }

    #[test]
    fn top_k_row_descending() {
        let t = Tensor::row_vector(vec![0.1, 5.0, 3.0, 4.0, -1.0]);
        assert_eq!(t.top_k_row(0, 3), vec![1, 3, 2]);
        assert_eq!(t.top_k_row(0, 10), vec![1, 3, 2, 0, 4]);
    }

    #[test]
    fn argmax_row_works() {
        let t = Tensor::from_vec(vec![0.0, 2.0, 1.0, 9.0, -3.0, 0.5], 2, 3);
        assert_eq!(t.argmax_row(0), 1);
        assert_eq!(t.argmax_row(1), 0);
    }

    #[test]
    fn normalize_rows_l1_handles_zero_rows() {
        let mut t = Tensor::from_vec(vec![2.0, 2.0, 0.0, 0.0], 2, 2);
        t.normalize_rows_l1();
        assert_eq!(t.row(0), &[0.5, 0.5]);
        assert_eq!(t.row(1), &[0.5, 0.5]);
    }

    #[test]
    fn randn_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Tensor::randn(100, 100, 1.0, &mut rng);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / (t.numel() as f32);
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn sum_mean_dot_norm() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.dot(&t), 30.0);
        assert!((t.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones(2, 2);
        let b = Tensor::full(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[7.0; 4]);
        a.scale_inplace(0.5);
        assert_eq!(a.data(), &[3.5; 4]);
    }

    // ---- CSR storage backend ----

    fn csr_fixture() -> Tensor {
        // [ 0 2 0 1 ]
        // [ 3 0 0 0 ]
        // [ 0 0 4 5 ]
        Tensor::from_csr(CsrMatrix::from_rows(
            3,
            4,
            vec![
                vec![(1u32, 2.0f32), (3, 1.0)],
                vec![(0, 3.0)],
                vec![(2, 4.0), (3, 5.0)],
            ],
        ))
    }

    #[test]
    fn csr_accessors_and_dense_equivalence() {
        let t = csr_fixture();
        assert!(t.is_sparse());
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.numel(), 12);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.get(1, 3), 0.0);
        let d = t.to_dense();
        assert!(!d.is_sparse());
        assert_eq!(t, d);
        assert_eq!(d, t);
        assert_eq!(t.sum(), d.sum());
        assert!(!t.has_non_finite());
    }

    #[test]
    fn csr_matmul_matches_dense_bitwise() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = csr_fixture();
        let d = t.to_dense();
        let w = Tensor::randn(4, 9, 1.0, &mut rng);
        let sparse = t.matmul(&w);
        let dense = d.matmul(&w);
        for (x, y) in sparse.data().iter().zip(dense.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn csr_matmul_tn_matches_dense_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = csr_fixture();
        let d = t.to_dense();
        let g = Tensor::randn(3, 7, 1.0, &mut rng);
        let sparse = t.matmul_tn(&g);
        let dense = d.matmul_tn(&g);
        for (x, y) in sparse.data().iter().zip(dense.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn csr_matmuls_counter_advances() {
        let before = csr_matmuls();
        let t = csr_fixture();
        let w = Tensor::ones(4, 2);
        let _ = t.matmul(&w);
        let g = Tensor::ones(3, 2);
        let _ = t.matmul_tn(&g);
        assert!(csr_matmuls() >= before + 2);
    }

    #[test]
    fn sum_at_nonzeros_groups_like_the_dense_sum() {
        // Terms whose f64 total depends on the 4096-element grouping: by
        // chunks, 2^-20 vanishes into -2^40 and the total is the tie
        // 2^24 + 1, which rounds to 2^24 in f32; summed in one run it
        // survives and the total rounds up to 2^24 + 2. 2^40 and -2^40
        // straddle the first chunk boundary, row 1 is empty and the last
        // chunk holds nothing.
        let (big, tiny) = (2f32.powi(40), 2f32.powi(-20));
        let pattern = CsrMatrix::from_rows(
            3,
            5000,
            vec![
                vec![(4095u32, big), (4096, -big), (4097, tiny)],
                vec![],
                vec![(0, 2f32.powi(24)), (1, 1.0)],
            ],
        );
        let dense = Tensor::from_csr(pattern.clone()).to_dense();
        let got = sum_at_nonzeros(&pattern, pattern.values());
        assert_eq!(got.to_bits(), dense.sum().to_bits());
        assert_eq!(got, 2f32.powi(24));
    }

    #[test]
    fn csr_normalize_rows_l1_matches_dense_bitwise() {
        let mut t = csr_fixture();
        let mut d = t.to_dense();
        t.normalize_rows_l1();
        d.normalize_rows_l1();
        assert!(t.is_sparse(), "no zero rows: must stay sparse");
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(t.get(r, c).to_bits(), d.get(r, c).to_bits());
            }
        }
    }

    #[test]
    fn csr_normalize_rows_l1_densifies_on_zero_row() {
        let mut t = Tensor::from_csr(CsrMatrix::from_rows(
            2,
            3,
            vec![vec![(0u32, 2.0f32), (1, 2.0)], vec![]],
        ));
        t.normalize_rows_l1();
        assert!(!t.is_sparse(), "zero row forces densification");
        assert_eq!(t.row(1), &[1.0 / 3.0; 3]);
    }

    #[test]
    #[should_panic(expected = "requires dense storage")]
    fn csr_rejects_dense_only_ops() {
        let t = csr_fixture();
        let _ = t.data();
    }
}
