//! Compressed sparse row (CSR) matrix storage.
//!
//! Bag-of-words batches are overwhelmingly sparse: a typical document
//! touches a few dozen of several hundred vocabulary slots, so the dense
//! `(docs, vocab)` batch tensor is >90% zeros. [`CsrMatrix`] stores only
//! the nonzeros, and [`crate::tensor::Tensor`] can carry one as an
//! alternative storage backend (see `Storage` in the `tensor` module) so
//! batches never have to be densified on the training or serving hot path.
//!
//! The layout is the standard three-array CSR form: `row_ptr[r]..row_ptr
//! [r+1]` indexes the `(col_idx, values)` pairs of row `r`, with column
//! indices strictly ascending within a row. Ascending order is load-bearing:
//! the sparse SGEMM kernels in [`crate::sgemm`] walk nonzeros in index
//! order, which makes their accumulation order identical to the dense
//! kernels' ascending-`k` loops and therefore keeps results bitwise equal
//! to the dense computation (zeros only ever contribute `acc += ±0.0`,
//! which never changes a finite accumulator produced from finite inputs).

/// A sparse row-major `f32` matrix in three-array CSR form.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `col_idx`/`values`.
    row_ptr: Vec<u32>,
    /// Column index of each nonzero, strictly ascending within a row.
    col_idx: Vec<u32>,
    /// Value of each nonzero.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from per-row `(col, value)` pairs, each row's pairs sorted by
    /// strictly ascending column index. This is the constructor the corpus
    /// layer uses to turn a slice of sparse documents into a batch without
    /// materializing the dense tensor.
    ///
    /// # Panics
    /// Panics if a column index is out of range or not strictly ascending
    /// within its row.
    pub fn from_rows<I>(rows: usize, cols: usize, row_entries: I) -> Self
    where
        I: IntoIterator,
        I::Item: IntoIterator<Item = (u32, f32)>,
    {
        assert!(cols <= u32::MAX as usize, "cols exceeds u32 index range");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        let mut built = 0usize;
        for entries in row_entries {
            let mut prev: Option<u32> = None;
            for (c, v) in entries {
                assert!((c as usize) < cols, "column {c} out of range ({cols})");
                assert!(
                    prev.is_none_or(|p| c > p),
                    "columns must be strictly ascending within a row"
                );
                prev = Some(c);
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len() as u32);
            built += 1;
        }
        assert_eq!(
            built, rows,
            "row iterator produced {built} rows, expected {rows}"
        );
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Adopt the three CSR arrays as they are: `row_ptr` (`rows + 1`
    /// offsets from 0 to `col_idx.len()`), and per stored entry its column
    /// and value. For builders that know every row's length up front and
    /// fill the arrays in place, with no per-row staging.
    ///
    /// # Panics
    /// Panics on the conditions [`Self::from_rows`] rejects, and if the
    /// offsets do not delimit the entries.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert!(cols <= u32::MAX as usize, "cols exceeds u32 index range");
        assert_eq!(
            row_ptr.len(),
            rows + 1,
            "row_ptr must hold rows + 1 offsets"
        );
        assert_eq!(col_idx.len(), values.len(), "one column per value");
        assert!(
            row_ptr[0] == 0 && row_ptr[rows] as usize == col_idx.len(),
            "row_ptr must run from 0 to the entry count"
        );
        for w in row_ptr.windows(2) {
            assert!(w[0] <= w[1], "row_ptr must not decrease");
            let run = &col_idx[w[0] as usize..w[1] as usize];
            assert!(
                run.last().is_none_or(|&c| (c as usize) < cols),
                "column out of range ({cols})"
            );
            assert!(
                run.windows(2).all(|p| p[0] < p[1]),
                "columns must be strictly ascending within a row"
            );
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The nonzeros of a dense row-major `(rows, cols)` image, scanned in
    /// row-major order (a `NaN` counts as nonzero).
    pub(crate) fn from_dense(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "dense image is not rows x cols");
        Self::from_rows(
            rows,
            cols,
            (0..rows).map(|r| {
                data[r * cols..(r + 1) * cols]
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(c, &v)| (c as u32, v))
                    .collect::<Vec<_>>()
            }),
        )
    }

    /// The same sparsity pattern holding `values` (one per stored entry,
    /// in storage order).
    pub(crate) fn with_values(&self, values: Vec<f32>) -> Self {
        assert_eq!(values.len(), self.nnz(), "one value per stored entry");
        Self {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values,
        }
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

    /// Number of stored (nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(col_idx, values)` pairs of row `r`, columns ascending.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        debug_assert!(r < self.rows);
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Element accessor: the stored value at `(r, c)`, or `0.0`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Immutable view of the stored values (all rows, row-major order).
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable view of the stored values — used to scale rows in place
    /// (L1 normalization) without disturbing the sparsity pattern.
    #[inline]
    pub(crate) fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Offsets delimiting each row's `(col, value)` run.
    #[inline]
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column index of every stored entry, in storage order.
    #[inline]
    pub(crate) fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Consume the matrix, returning the values buffer (for the arena).
    pub(crate) fn into_values(self) -> Vec<f32> {
        self.values
    }

    /// Write the dense row-major image into `out` (`rows * cols`, zeroed
    /// here first).
    pub fn write_dense(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.rows * self.cols);
        out.fill(0.0);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let base = r * self.cols;
            for (&c, &v) in cols.iter().zip(vals) {
                out[base + c as usize] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 0 3 0 ]
        CsrMatrix::from_rows(
            3,
            3,
            vec![vec![(0u32, 1.0f32), (2, 2.0)], vec![], vec![(1, 3.0)]],
        )
    }

    #[test]
    fn from_rows_layout() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0f32, 2.0][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 3.0);
    }

    #[test]
    fn write_dense_matches() {
        let m = sample();
        let mut out = vec![f32::NAN; 9];
        m.write_dense(&mut out);
        assert_eq!(out, vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn from_parts_equals_from_rows() {
        let m = sample();
        let parts = CsrMatrix::from_parts(
            3,
            3,
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.values().to_vec(),
        );
        assert_eq!(parts, m);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_parts_rejects_unsorted_columns() {
        let _ = CsrMatrix::from_parts(1, 4, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_columns() {
        let _ = CsrMatrix::from_rows(1, 4, vec![vec![(2u32, 1.0f32), (1, 1.0)]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_column() {
        let _ = CsrMatrix::from_rows(1, 2, vec![vec![(2u32, 1.0f32)]]);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn rejects_row_count_mismatch() {
        let _ = CsrMatrix::from_rows(2, 2, vec![vec![(0u32, 1.0f32)]]);
    }
}
