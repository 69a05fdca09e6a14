//! Blocked single-precision matrix-multiply kernels.
//!
//! Three layouts are provided so callers never materialize transposes in hot
//! paths: `C = A·B` (nn), `C = A·Bᵀ` (nt), and `C = Aᵀ·B` (tn). All operate
//! on row-major slices and accumulate into `C` (`C +=`).
//!
//! # One register-blocked kernel
//!
//! The dense `nn` and `tn` products and the large-`nt` route all run one
//! Goto/BLIS-style blocked loop (`gemm_blocked`), which reads `A` and `B`
//! through (row, column) strides, so a transposed operand is just another
//! stride pair and never a copy:
//!
//! - `C` is cut into `MR × NR` (12 × 32) tiles; the micro-kernel
//!   ([`crate::simd`]'s register tile) keeps one tile in registers for a
//!   whole k-panel of depth `KC`, so each `C` element is loaded and stored
//!   once per `KC` multiply-adds instead of once per multiply-add. Every
//!   tile body (AVX-512, AVX2 quadrants, portable) reads the same packing
//!   geometry, chosen once per product by CPUID.
//! - `B` is packed, `KC` rows × `NC` columns at a time, into contiguous
//!   `KC × NR` strips in a reused thread-local buffer (zero-padded to a
//!   whole strip). Slabs of fewer than `PACK_B_MIN_M` rows read a
//!   unit-stride `B` in place instead, so small inference-sized products do
//!   not pay a packing pass that would not be reused.
//! - `A` is packed one `MR`-row strip at a time (`kc × MR`). The k-panels
//!   are the outer loop, so when `n` spans several `NC` panels a k-panel's
//!   `A` strips are packed once, during the first panel, and reused.
//! - A `B` that many products share can be packed once, whole, into the
//!   same strips ([`PackedB`], multiplied by [`sgemm_nn_packed`]).
//! - The tile runs on as many rows and columns as the block of `C` has (1
//!   to `MR`, 1 to `NR`), so the bottom edge of `C`, and a one-row product,
//!   costs only its own rows. On a ragged right edge the AVX-512 body loads
//!   and stores `C` under a lane mask (and runs one vector per row when at
//!   most 16 columns are valid); the other bodies work on a stack copy and
//!   store back only the valid columns.
//!
//! Bitwise contract: every `C` element still sees `c = c + (a·b)` (separate
//! multiply and add, never FMA) once per `k`, in ascending `k` order — the
//! order of the naive triple loop. Blocking, packing, the SIMD body and the
//! worker count change none of the bits.
//!
//! Large multiplies are partitioned across the persistent worker pool in
//! [`crate::pool`]: `nn`/`nt` split the output *row* range, `tn` splits the
//! output *column* range. Each worker owns a disjoint slab of `C`, so results
//! are bitwise identical for any `CT_NUM_THREADS`.
//!
//! The small `nt` route keeps its own dot-product kernel (four interleaved
//! partial sums, [`simd::dot4`]): that grouping is pinned by the training
//! trajectories of the shapes below `NT_VIA_BLOCKED_MIN_FLOPS`.
//!
//! Callers with genuinely sparse left operands have two more tiers:
//! [`sgemm_nn_sparse_a`] skips zero entries of a dense buffer, while
//! [`sgemm_csr_dense`] / [`sgemm_csr_t_dense`] take a [`CsrMatrix`] and never
//! touch the zeros at all. `sgemm_csr_dense` holds a chunk of each output
//! row in registers across the row's nonzeros (`simd`'s CSR row chunk, on
//! the tile's three bodies); the others' inner loop is [`simd::axpy`]. All
//! are bitwise identical to the dense kernels on finite inputs.

use crate::csr::CsrMatrix;
use crate::pool;
use crate::simd::{self, TileBody, MR, NR};

/// Depth of one k-panel: the `k` range a `C` tile accumulates in registers
/// between a load and a store. A packed `A` strip (`KC × MR`, 12 KB) and
/// `B` strip (`KC × NR`, 32 KB) together take 44 KB, inside a 48 KB L1D.
/// (`KC` does not affect the bits; on an AVX-512 Xeon 128, 192, 256 and
/// 320 measured within 5% of each other on the regularizer's products.)
const KC: usize = 256;

/// Columns of `B` packed per panel: a `KC × NC` panel is 512 KB, which sits
/// in L2 while every `A` strip of the slab streams over it.
const NC: usize = 512;

/// Slabs with fewer rows than this read a unit-stride `B` in place: a
/// packed strip would be reused by at most six `A` strips, too few to repay
/// the copy. (At the 32-row held-out inference batch the in-place read is
/// ~30% faster on an AVX2 Xeon; from 64 rows up the two are even.)
const PACK_B_MIN_M: usize = 64;

#[derive(Clone, Copy)]
struct MutPtr(*mut f32);
// SAFETY: only ever dereferenced for disjoint index ranges handed out by
// `pool::run_partitioned`, so no two threads touch the same element.
unsafe impl Send for MutPtr {}
unsafe impl Sync for MutPtr {}

impl MutPtr {
    /// Accessor rather than field access so closures capture the `Sync`
    /// wrapper itself — edition-2021 disjoint capture would otherwise pull
    /// in just the raw `*mut f32` field, which is not `Sync`.
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// A read-only matrix view: element `(r, c)` is `data[r * rs + c * cs]`.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl Strided<'_> {
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

thread_local! {
    /// Reused packing buffers (`A` strips, `B` panel) — one pair per
    /// thread, so pool workers packing concurrently never contend or
    /// allocate after warm-up.
    static PACK_BUF: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Pack rows `i0..i0 + mr` × columns `p0..p0 + kc` of `a` into `out` as
/// `kc` groups of `MR` slots (row-interleaved); slots past `mr` are left
/// as they are, since an `mr`-row tile never reads them.
fn pack_a(a: Strided, i0: usize, mr: usize, p0: usize, kc: usize, out: &mut [f32]) {
    for (kk, dst) in out[..kc * MR].chunks_exact_mut(MR).enumerate() {
        for (r, d) in dst[..mr].iter_mut().enumerate() {
            *d = a.at(i0 + r, p0 + kk);
        }
    }
}

/// Pack rows `p0..p0 + kc` × columns `j0..j0 + nc` of `b` into `out` as
/// consecutive `kc × NR` strips, zero-padding the last strip's columns past
/// `nc`.
fn pack_b(b: Strided, p0: usize, kc: usize, j0: usize, nc: usize, out: &mut [f32]) {
    for (s, strip) in out.chunks_exact_mut(kc * NR).enumerate() {
        let js = j0 + s * NR;
        let w = NR.min(j0 + nc - js);
        if b.cs == 1 {
            for (kk, dst) in strip.chunks_exact_mut(NR).enumerate() {
                let src = (p0 + kk) * b.rs + js;
                dst[..w].copy_from_slice(&b.data[src..src + w]);
                dst[w..].fill(0.0);
            }
        } else {
            // Column-major walk: reads along `k` are the unit stride here.
            for jj in 0..NR {
                for kk in 0..kc {
                    strip[kk * NR + jj] = if jj < w { b.at(p0 + kk, js + jj) } else { 0.0 };
                }
            }
        }
    }
}

/// A row-major right operand `B (k × n)` packed once, whole, into the
/// blocked kernel's strip layout, for a `B` that many products share (the
/// regularizer's constant `V × V` similarity kernel).
///
/// Column strip `s` (columns `s·NR..`, zero-padded to `NR`) holds all `k`
/// rows as one `k × NR` block, so the `kc × NR` strip of any k-panel is a
/// contiguous slice: exactly what the blocked loop packs per panel for a
/// row-major `B`. Multiplying by the packed form gives the same bits as
/// multiplying by the row-major one; it only skips the packing pass.
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Pack the row-major `b (k × n)`.
    pub fn pack(k: usize, n: usize, b: &[f32]) -> Self {
        assert_eq!(b.len(), k * n, "PackedB::pack: slice is not k x n");
        let mut data = vec![0.0; n.div_ceil(NR) * k * NR];
        if k > 0 {
            let b = Strided {
                data: b,
                rs: n,
                cs: 1,
            };
            pack_b(b, 0, k, 0, n, &mut data);
        }
        Self { k, n, data }
    }

    /// Rows `k` of `B`.
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Columns `n` of `B`.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Element `(r, c)` of `B`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.k && c < self.n, "PackedB::get out of bounds");
        self.data[(c / NR) * self.k * NR + r * NR + c % NR]
    }

    /// Bytes held, including the zero padding of a ragged last strip.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// The `kc × NR` block of rows `p0..` of the strip holding column `j`
    /// (a multiple of `NR`).
    fn strip(&self, p0: usize, j: usize) -> *const f32 {
        debug_assert!(j.is_multiple_of(NR) && j < self.n && p0 < self.k);
        // SAFETY: strip `j / NR` exists since `j < n`, and row `p0 < k`
        // lies inside it.
        unsafe { self.data.as_ptr().add((j / NR) * self.k * NR + p0 * NR) }
    }
}

/// Where [`gemm_blocked`] reads `B` from.
#[derive(Clone, Copy)]
enum RhsSource<'a> {
    /// Through strides: packed per panel, or read in place by short slabs.
    Strided(Strided<'a>),
    /// Already packed whole.
    Packed(&'a PackedB),
}

/// `C += A(m x k) · B(k x n)` with `A` read through its strides, `B` from
/// `b`, and `C` row-major at `c` with row stride `ldc`, on the calling
/// thread.
///
/// The k-panels are the outer loop: `A`'s strips for a k-panel are packed
/// during the first column panel and reused by the rest, so `A` is packed
/// once per product however many `NC` panels `n` spans. Each `C` element
/// still sees its k-panels, and the `k` inside each, in ascending order.
///
/// # Safety
///
/// `c + i * ldc + j` must be valid for reads and writes for every `i < m`,
/// `j < n`, and no other thread may touch those elements during the call.
/// `a` must hold every `(i, p)` and `b` every `(p, j)` for `i < m`,
/// `p < k`, `j < n` (the slices bound what `Strided::at` reads; `b`'s
/// in-place strips are read through a raw pointer, so this must hold). A
/// packed `b` must be `k × n`.
unsafe fn gemm_blocked(
    body: TileBody,
    (m, k, n): (usize, usize, usize),
    a: Strided,
    b: RhsSource,
    c: *mut f32,
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let b_in_place = matches!(b, RhsSource::Strided(s) if s.cs == 1 && m < PACK_B_MIN_M);
    // One `A` strip slot suffices when there is one column panel.
    let a_slots = if n > NC { m.div_ceil(MR) } else { 1 };
    PACK_BUF.with(|bufs| {
        let (a_buf, b_buf) = &mut *bufs.borrow_mut();
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            a_buf.resize(a_slots * kc * MR, 0.0);
            for j0 in (0..n).step_by(NC) {
                let nc = NC.min(n - j0);
                let strips = nc.div_ceil(NR);
                if let RhsSource::Strided(b) = b {
                    if !b_in_place {
                        b_buf.resize(strips * kc * NR, 0.0);
                        pack_b(b, p0, kc, j0, nc, &mut b_buf[..strips * kc * NR]);
                    } else if !nc.is_multiple_of(NR) {
                        // Only a ragged last strip needs a padded copy.
                        b_buf.resize(kc * NR, 0.0);
                        let js = (strips - 1) * NR;
                        pack_b(b, p0, kc, j0 + js, nc - js, &mut b_buf[..kc * NR]);
                    }
                }
                for i0 in (0..m).step_by(MR) {
                    let mr = MR.min(m - i0);
                    let a_strip = &mut a_buf[((i0 / MR) % a_slots) * kc * MR..][..kc * MR];
                    if j0 == 0 {
                        pack_a(a, i0, mr, p0, kc, a_strip);
                    }
                    for s in 0..strips {
                        let js = s * NR;
                        let nr = NR.min(nc - js);
                        // SAFETY: a packed panel strip lies inside `b_buf`,
                        // resized above to `strips · kc · NR` (or `kc · NR`
                        // for the one ragged in-place strip); a pre-packed
                        // strip holds `kc · NR` values from row `p0` (see
                        // `PackedB::strip`); a full in-place strip reads
                        // `NR` columns below `j0 + nc ≤ n` on rows below
                        // `p0 + kc ≤ k`, which `b` holds. The `C` tile's
                        // `mr` rows of `nr` columns lie inside the caller's
                        // `m × n` block, and the tile touches no others. It
                        // reads `kc · MR` values of `a_strip` and `NR` per
                        // `k` step of the strip.
                        let (b_strip, b_rs) = match b {
                            RhsSource::Packed(pb) => (pb.strip(p0, j0 + js), NR),
                            RhsSource::Strided(_) if !b_in_place => {
                                (b_buf.as_ptr().add(s * kc * NR), NR)
                            }
                            RhsSource::Strided(b) if nr == NR => {
                                (b.data.as_ptr().add(p0 * b.rs + j0 + js), b.rs)
                            }
                            RhsSource::Strided(_) => (b_buf.as_ptr(), NR),
                        };
                        let c_tile = c.add(i0 * ldc + j0 + js);
                        simd::tile(
                            body,
                            (mr, nr),
                            kc,
                            a_strip.as_ptr(),
                            b_strip,
                            b_rs,
                            c_tile,
                            ldc,
                        );
                    }
                }
            }
        }
    });
}

/// `C += A(m x k) · B(k x n)`, all row-major. `c` must be zeroed by the
/// caller if a pure product is wanted.
pub fn sgemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm_nn_with(TileBody::host(), m, k, n, a, b, c);
}

fn sgemm_nn_with(
    body: TileBody,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    // Full asserts, not debug ones: the blocked kernel reads and writes
    // through raw pointers that these lengths bound.
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    let b = Strided {
        data: b,
        rs: n,
        cs: 1,
    };
    sgemm_rows(body, m, k, n, a, RhsSource::Strided(b), c);
}

/// `C += A(m x k) · B` for a pre-packed `B (k x n)`, all row-major:
/// bitwise identical to [`sgemm_nn`] on the row-major `B`, without its
/// per-product packing pass.
pub fn sgemm_nn_packed(m: usize, a: &[f32], b: &PackedB, c: &mut [f32]) {
    let (k, n) = (b.rows(), b.cols());
    assert_eq!(a.len(), m * k);
    assert_eq!(c.len(), m * n);
    sgemm_rows(TileBody::host(), m, k, n, a, RhsSource::Packed(b), c);
}

/// Row-partitioned driver shared by `nn` and the large `nt` route: each
/// worker runs [`gemm_blocked`] on its own slab of `A` rows and `C` rows.
fn sgemm_rows(
    body: TileBody,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: RhsSource,
    c: &mut [f32],
) {
    let c_ptr = MutPtr(c.as_mut_ptr());
    pool::run_partitioned(m, pool::min_items_for_grain(k * n), |rows| {
        let a_slab = Strided {
            data: &a[rows.start * k..rows.end * k],
            rs: k,
            cs: 1,
        };
        // SAFETY: row ranges from `run_partitioned` are disjoint, so the
        // `C` slabs are non-overlapping.
        unsafe {
            let c_slab = c_ptr.get().add(rows.start * n);
            gemm_blocked(body, (rows.len(), k, n), a_slab, b, c_slab, n);
        }
    });
}

/// `C += A(m x k) · B(k x n)` for a *sparse* left operand: the inner loop
/// skips zero entries of `A`. Intended for bag-of-words batches, where most
/// vocabulary counts are zero and the skip saves the whole axpy. On dense
/// inputs prefer [`sgemm_nn`]; the per-element branch costs more than it
/// saves there. (Pedantic note: skipping `0.0 · x` can flip the sign of a
/// zero or drop a NaN from a non-finite `B`; training inputs are finite
/// counts, where the result is identical.)
pub fn sgemm_nn_sparse_a(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let c_ptr = MutPtr(c.as_mut_ptr());
    pool::run_partitioned(m, pool::min_items_for_grain(k * n), |rows| {
        let base = c_ptr.get();
        let slab = rows.len();
        // SAFETY: disjoint row ranges — see `sgemm_rows`.
        let c_slab = unsafe { std::slice::from_raw_parts_mut(base.add(rows.start * n), slab * n) };
        for i in 0..slab {
            let a_row = &a[(rows.start + i) * k..(rows.start + i + 1) * k];
            let c_row = &mut c_slab[i * n..(i + 1) * n];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                simd::axpy(c_row, aik, &b[kk * n..(kk + 1) * n]);
            }
        }
    });
}

/// `C += A · B` for a CSR left operand `A (m x k)` and dense row-major
/// `B (k x n)`, producing dense `C (m x n)`.
///
/// Each output row is cut into chunks of up to `simd::CSR_CHUNK` (64)
/// columns; a chunk stays in registers while it accumulates every
/// nonzero of the row, in ascending column order — the same `k` order as
/// the dense kernels, with the zero terms skipped — and is stored once.
/// It starts from `C + 0.0` (a `-0.0` in `C` becomes `+0.0`, as the dense
/// chain's first `0·b` would make it). Skipping `acc += 0.0 * b` never
/// changes a finite accumulator that is not `-0.0`, so the result is
/// **bitwise identical** to [`sgemm_nn`] / [`sgemm_nn_sparse_a`] on the
/// densified operand for finite inputs. Rows are partitioned across the
/// pool exactly like `sgemm_nn`, preserving the any-worker-count
/// determinism contract.
pub fn sgemm_csr_dense(a: &CsrMatrix, n: usize, b: &[f32], c: &mut [f32]) {
    sgemm_csr_dense_with(TileBody::host(), a, n, b, c);
}

fn sgemm_csr_dense_with(body: TileBody, a: &CsrMatrix, n: usize, b: &[f32], c: &mut [f32]) {
    let m = a.rows();
    let k = a.cols();
    // Full asserts: the row kernel reads `B` and writes `C` through raw
    // pointers that these lengths bound (`from_rows` bounds the columns).
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    // Cost per output row ≈ nnz/m multiply-adds of width n.
    let cost_per_row = (a.nnz() / m.max(1)).max(1) * n;
    let c_ptr = MutPtr(c.as_mut_ptr());
    pool::run_partitioned(m, pool::min_items_for_grain(cost_per_row), |rows| {
        let base = c_ptr.get();
        for r in rows {
            for j0 in (0..n).step_by(simd::CSR_CHUNK) {
                let w = simd::CSR_CHUNK.min(n - j0);
                // SAFETY: every column index of `a` is below `k`, so each
                // `B` row chunk lies inside `b`; row ranges are disjoint
                // across workers (see `sgemm_rows`), so this chunk of `C`
                // is ours alone.
                unsafe {
                    let c_chunk = base.add(r * n + j0);
                    simd::csr_row(body, a.row(r), b.as_ptr().add(j0), n, c_chunk, w);
                }
            }
        }
    });
}

/// `C += Aᵀ · B` for a CSR `A (m x k)` and dense `B (m x n)`, producing
/// dense `C (k x n)` — the weight-gradient form `dW = Xᵀ·dY` with a sparse
/// batch `X`.
///
/// Mirrors [`sgemm_tn`]: the outer loop walks the shared dimension (the
/// batch rows) in ascending order applying rank-1 updates, and the output
/// **columns** are partitioned across workers so every `C` element sees
/// the same accumulation order at any worker count. Nonzeros are visited
/// in the same ascending order as the dense kernel's loops, so (by the
/// zero-skip argument on [`sgemm_csr_dense`]) the result is bitwise
/// identical to [`sgemm_tn`] on the densified operand.
pub fn sgemm_csr_t_dense(a: &CsrMatrix, n: usize, b: &[f32], c: &mut [f32]) {
    let m = a.rows();
    let k = a.cols();
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    // Cost per output column ≈ one multiply-add per nonzero of A.
    let c_ptr = MutPtr(c.as_mut_ptr());
    pool::run_partitioned(n, pool::min_items_for_grain(a.nnz().max(1)), |cols| {
        let base = c_ptr.get();
        let jw = cols.len();
        for d in 0..m {
            let (row_cols, row_vals) = a.row(d);
            let b_seg = &b[d * n + cols.start..d * n + cols.end];
            for (&i, &v) in row_cols.iter().zip(row_vals) {
                // SAFETY: column slabs are disjoint across workers — see
                // `sgemm_tn`.
                let c_seg = unsafe {
                    std::slice::from_raw_parts_mut(base.add(i as usize * n + cols.start), jw)
                };
                simd::axpy(c_seg, v, b_seg);
            }
        }
    });
}

/// `C += A · Bᵀ` for a CSR `A (m x k)` and a dense `B (n x k)`, producing
/// dense `C (m x n)`: [`sgemm_nt`] with the zero terms of `A` skipped,
/// bitwise equal to it on the densified `A`. `B` is handed over
/// transposed, as `bt = Bᵀ (k x n)` row-major, so one axpy over a row of
/// `bt` updates every output column of a row at once (the caller, the
/// fused bag-of-words likelihood, holds `βᵀ` already).
///
/// It follows `sgemm_nt`'s route rule on the dense-equivalent shape. At or
/// above `NT_VIA_BLOCKED_MIN_FLOPS` every element sums its nonzero terms in
/// ascending column order, as the blocked tile does. Below it, every
/// element reproduces [`simd::dot4`]: four lane sums (the terms of the
/// columns `≡ 0, 1, 2, 3 mod 4` below the last multiple of four), combined
/// as `((l0 + l1) + l2) + l3`, then the tail columns in order. Each skipped
/// term is an exact `±0.0` product, and an accumulator started at `+0.0`
/// never becomes `-0.0`, so skipping it changes no bit.
pub(crate) fn sgemm_csr_nt(a: &CsrMatrix, n: usize, bt: &[f32], c: &mut [f32]) {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(bt.len(), k * n);
    assert_eq!(c.len(), m * n);
    if m * k * n >= NT_VIA_BLOCKED_MIN_FLOPS {
        // Ascending `j` per element: exactly the CSR-times-dense product.
        sgemm_csr_dense(a, n, bt, c);
        return;
    }
    let k4 = k - k % 4;
    let cost_per_row = (a.nnz() / m.max(1)).max(1) * n;
    let c_ptr = MutPtr(c.as_mut_ptr());
    pool::run_partitioned(m, pool::min_items_for_grain(cost_per_row), |rows| {
        let base = c_ptr.get();
        // SAFETY: disjoint row ranges — see `sgemm_rows`.
        let c_slab =
            unsafe { std::slice::from_raw_parts_mut(base.add(rows.start * n), rows.len() * n) };
        // Four lane rows, then the combined row.
        let mut lanes = vec![0.0f32; 5 * n];
        for (i, r) in rows.clone().enumerate() {
            lanes.fill(0.0);
            let (lane_rows, acc) = lanes.split_at_mut(4 * n);
            let (cols, vals) = a.row(r);
            let split = cols.partition_point(|&j| (j as usize) < k4);
            for (&j, &v) in cols[..split].iter().zip(vals) {
                let j = j as usize;
                simd::axpy(&mut lane_rows[(j % 4) * n..][..n], v, &bt[j * n..][..n]);
            }
            for (t, s) in acc.iter_mut().enumerate() {
                *s = ((lane_rows[t] + lane_rows[n + t]) + lane_rows[2 * n + t])
                    + lane_rows[3 * n + t];
            }
            for (&j, &v) in cols[split..].iter().zip(&vals[split..]) {
                simd::axpy(acc, v, &bt[j as usize * n..][..n]);
            }
            for (cv, &s) in c_slab[i * n..(i + 1) * n].iter_mut().zip(acc.iter()) {
                *cv += s;
            }
        }
    });
}

/// Sampled dense-dense product: for the `p`-th stored `(i, j)` of
/// `pattern (m x n)`, `out[p] = (A·B)ᵢⱼ` for `A (m x k)` row-major and `B`
/// given transposed as `bt (n x k)` row-major. Each entry is accumulated
/// from `+0.0` in ascending `k` with a separate multiply and add, the order
/// of the blocked `nn` tile, so it is bitwise that product's entry; entries
/// of `A·B` off the pattern are never computed.
pub(crate) fn sddmm_csr(pattern: &CsrMatrix, k: usize, a: &[f32], bt: &[f32], out: &mut [f32]) {
    let (m, n) = (pattern.rows(), pattern.cols());
    assert_eq!(a.len(), m * k);
    assert_eq!(bt.len(), n * k);
    assert_eq!(out.len(), pattern.nnz());
    let row_ptr = pattern.row_ptr();
    let cost_per_row = (pattern.nnz() / m.max(1)).max(1) * k;
    let out_ptr = MutPtr(out.as_mut_ptr());
    pool::run_partitioned(m, pool::min_items_for_grain(cost_per_row), |rows| {
        let (lo, hi) = (row_ptr[rows.start] as usize, row_ptr[rows.end] as usize);
        // SAFETY: disjoint row ranges own disjoint runs of stored entries.
        let out = unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(lo), hi - lo) };
        for r in rows {
            let a_row = &a[r * k..(r + 1) * k];
            let (cols, _) = pattern.row(r);
            let dst = &mut out[row_ptr[r] as usize - lo..][..cols.len()];
            // Eight entries at a time: eight independent sums in flight.
            let mut col_blocks = cols.chunks_exact(8);
            let mut dst_blocks = dst.chunks_exact_mut(8);
            for (js, ds) in (&mut col_blocks).zip(&mut dst_blocks) {
                let b_rows: [&[f32]; 8] = std::array::from_fn(|l| &bt[js[l] as usize * k..][..k]);
                let mut acc = [0.0f32; 8];
                for (kk, &av) in a_row.iter().enumerate() {
                    for (s, b_row) in acc.iter_mut().zip(&b_rows) {
                        *s += av * b_row[kk];
                    }
                }
                ds.copy_from_slice(&acc);
            }
            for (&j, d) in col_blocks
                .remainder()
                .iter()
                .zip(dst_blocks.into_remainder())
            {
                let b_row = &bt[j as usize * k..][..k];
                let mut s = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    s += av * bv;
                }
                *d = s;
            }
        }
    });
}

/// Whether `a` is sparse enough (and the multiply big enough) that scanning
/// it and dispatching to [`sgemm_nn_sparse_a`] is likely to win. The scan is
/// `O(mk)` against an `O(mkn)` multiply, so it is only attempted when `n`
/// amortizes it.
pub fn sparse_a_worthwhile(m: usize, k: usize, n: usize, a: &[f32]) -> bool {
    if m * k * n < (1 << 20) || n < 16 {
        return false;
    }
    let zeros = a.iter().filter(|v| **v == 0.0).count();
    // Worth it from ~60% zeros: the skip saves the axpy but costs a branch.
    zeros * 10 >= a.len() * 6
}

/// Minimum multiply-add count before `nt` leaves the dot-product kernel
/// for the blocked kernel, which reads `B (n x k)` as `Bᵀ` through its
/// strides while packing. The dot-product kernel streams `B` through cache
/// `m` times, which caps it at a fraction of the blocked throughput, but
/// switching routes also changes the accumulation grouping (four
/// interleaved partial sums vs. sequential), and the mid-size shapes below
/// the crossover sit on training paths whose float-exact trajectories are
/// pinned by seed-sensitive quality tests.
const NT_VIA_BLOCKED_MIN_FLOPS: usize = 1 << 23;

/// `C += A(m x k) · B(n x k)ᵀ`, producing `C (m x n)`.
///
/// Large multiplies run the blocked kernel with `B` read transposed (no
/// transpose buffer); small and mid-size shapes keep the unrolled
/// dot-product kernel (see the `NT_VIA_BLOCKED_MIN_FLOPS` crossover above).
/// Both routes partition output rows, so results are bitwise identical
/// across worker counts.
pub fn sgemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm_nt_with(TileBody::host(), m, k, n, a, b, c);
}

fn sgemm_nt_with(
    body: TileBody,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    if m * k * n >= NT_VIA_BLOCKED_MIN_FLOPS {
        let bt = Strided {
            data: b,
            rs: 1,
            cs: k,
        };
        sgemm_rows(body, m, k, n, a, RhsSource::Strided(bt), c);
        return;
    }
    let c_ptr = MutPtr(c.as_mut_ptr());
    pool::run_partitioned(m, pool::min_items_for_grain(k * n), |rows| {
        let base = c_ptr.get();
        let slab = rows.len();
        // SAFETY: disjoint row ranges — see `sgemm_rows`.
        let c_slab = unsafe { std::slice::from_raw_parts_mut(base.add(rows.start * n), slab * n) };
        let a_slab = &a[rows.start * k..(rows.start + slab) * k];
        sgemm_nt_rows(slab, k, n, a_slab, b, c_slab);
    });
}

fn sgemm_nt_rows(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for j in 0..n {
            c_row[j] += simd::dot4(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// `C += A(k x m)ᵀ · B(k x n)`, producing `C (m x n)`.
///
/// The blocked kernel reads `A` transposed through its strides. Output
/// **columns** are split across workers: each owns `C[:, j0..j1]` and
/// accumulates every element in ascending `k` order, as the `nn` layout
/// does, so results are bitwise identical at any worker count. (Splitting
/// columns keeps the parallel grain on the wide dimension of this layout's
/// typical use, the weight gradient `dW = Xᵀ·dY`.)
pub fn sgemm_tn(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm_tn_with(TileBody::host(), k, m, n, a, b, c);
}

fn sgemm_tn_with(
    body: TileBody,
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), k * m);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    let at = Strided {
        data: a,
        rs: 1,
        cs: m,
    };
    let c_ptr = MutPtr(c.as_mut_ptr());
    pool::run_partitioned(n, pool::min_items_for_grain(k * m), |cols| {
        let b_slab = Strided {
            data: &b[cols.start..],
            rs: n,
            cs: 1,
        };
        // SAFETY: column slabs are disjoint across workers, so the `C`
        // elements `(i, cols)` are only ever touched by this worker.
        unsafe {
            let c_slab = c_ptr.get().add(cols.start);
            gemm_blocked(
                body,
                (m, k, cols.len()),
                at,
                RhsSource::Strided(b_slab),
                c_slab,
                n,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        // Tiny LCG: deterministic without pulling rand into this module.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn nn_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (17, 33, 9), (64, 64, 64)] {
            let a = rand_vec(m * k, 1);
            let b = rand_vec(k * n, 2);
            let mut c = vec![0.0; m * n];
            sgemm_nn(m, k, n, &a, &b, &mut c);
            let expect = naive_nn(m, k, n, &a, &b);
            for (x, y) in c.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn sparse_a_matches_dense() {
        let (m, k, n) = (7, 40, 23);
        let mut a = rand_vec(m * k, 13);
        // Zero out ~75% of A.
        for (idx, v) in a.iter_mut().enumerate() {
            if idx % 4 != 0 {
                *v = 0.0;
            }
        }
        let b = rand_vec(k * n, 14);
        let mut dense = vec![0.0; m * n];
        sgemm_nn(m, k, n, &a, &b, &mut dense);
        let mut sparse = vec![0.0; m * n];
        sgemm_nn_sparse_a(m, k, n, &a, &b, &mut sparse);
        for (x, y) in sparse.iter().zip(&dense) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn sparse_heuristic_requires_size_and_density() {
        let dense = vec![1.0f32; 64 * 64];
        assert!(!sparse_a_worthwhile(64, 64, 600, &dense), "dense A");
        let mut sparse = vec![0.0f32; 256 * 600];
        sparse[3] = 1.0;
        assert!(
            sparse_a_worthwhile(256, 600, 128, &sparse),
            "sparse A, big op"
        );
        assert!(!sparse_a_worthwhile(4, 4, 4, &sparse[..16]), "tiny op");
    }

    #[test]
    fn nt_matches_naive() {
        let (m, k, n) = (13, 21, 8);
        let a = rand_vec(m * k, 3);
        let bt = rand_vec(n * k, 4);
        // Build B (k x n) from Bt (n x k).
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        let mut c = vec![0.0; m * n];
        sgemm_nt(m, k, n, &a, &bt, &mut c);
        let expect = naive_nn(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn tn_matches_naive() {
        let (k, m, n) = (19, 6, 11);
        let at = rand_vec(k * m, 5);
        // Build A (m x k) from At (k x m).
        let mut a = vec![0.0; m * k];
        for kk in 0..k {
            for i in 0..m {
                a[i * k + kk] = at[kk * m + i];
            }
        }
        let b = rand_vec(k * n, 6);
        let mut c = vec![0.0; m * n];
        sgemm_tn(k, m, n, &at, &b, &mut c);
        let expect = naive_nn(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    /// `C += A·B` with `A(i, kk) = a[i * a_rs + kk * a_cs]` and
    /// `B(kk, j) = b[kk * b_rs + j * b_cs]`: each element sees
    /// `c = c + a·b` in ascending `k` order — the order every blocked
    /// route must reproduce bit for bit.
    fn reference(
        (m, k, n): (usize, usize, usize),
        a: &[f32],
        (a_rs, a_cs): (usize, usize),
        b: &[f32],
        (b_rs, b_cs): (usize, usize),
        c: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for kk in 0..k {
                    acc += a[i * a_rs + kk * a_cs] * b[kk * b_rs + j * b_cs];
                }
                c[i * n + j] = acc;
            }
        }
    }

    /// A non-zero starting `C` with signed zeros sprinkled in: a kernel
    /// that seeded its accumulators with `+0.0` would turn them positive.
    fn initial_c(len: usize, seed: u64) -> Vec<f32> {
        let mut c = rand_vec(len, seed);
        for (idx, v) in c.iter_mut().enumerate() {
            if idx % 3 == 0 {
                *v = -0.0;
            }
        }
        c
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

    /// Shapes straddling every blocking boundary: `m` around `MR` (one-tile
    /// products of every height 1..=11, bottom tiles of 1, 3, 4 and 11
    /// rows) and at the packed-`B` cut-off, `n` around the 16-column half
    /// tile, `NR` and `NC`, `k` around `KC`.
    fn edge_shapes() -> Vec<(usize, usize, usize)> {
        let ms = (0..MR).chain([MR + 1, 2 * MR + 3, PACK_B_MIN_M, PACK_B_MIN_M + 7]);
        let ns = [0, 1, NR / 2, NR / 2 + 1, NR - 1, NR + 1, NC + 1];
        let ks = [0, 1, KC + 1];
        let mut shapes = Vec::new();
        for m in ms {
            for &n in &ns {
                for &k in &ks {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes
    }

    #[test]
    fn nn_edge_shapes_bitwise_match_reference() {
        for (m, k, n) in edge_shapes() {
            let a = rand_vec(m * k, 51);
            let b = rand_vec(k * n, 52);
            let mut want = initial_c(m * n, 53);
            reference((m, k, n), &a, (k, 1), &b, (n, 1), &mut want);
            for body in TileBody::supported() {
                let mut c = initial_c(m * n, 53);
                // One worker, so the slab is the whole `m` and the packed
                // path runs from `PACK_B_MIN_M` rows.
                pool::with_threads(1, || sgemm_nn_with(body, m, k, n, &a, &b, &mut c));
                assert_bits(&c, &want, &format!("nn {body:?} {m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn tn_edge_shapes_bitwise_match_reference() {
        for (m, k, n) in edge_shapes() {
            let at = rand_vec(k * m, 54);
            let b = rand_vec(k * n, 55);
            let mut want = initial_c(m * n, 56);
            reference((m, k, n), &at, (1, m), &b, (n, 1), &mut want);
            for body in TileBody::supported() {
                let mut c = initial_c(m * n, 56);
                pool::with_threads(1, || sgemm_tn_with(body, k, m, n, &at, &b, &mut c));
                assert_bits(&c, &want, &format!("tn {body:?} {m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn nt_blocked_route_edge_shapes_bitwise_match_reference() {
        // The large-`nt` route at every edge shape, called below the
        // crossover too so the small shapes reach it.
        for (m, k, n) in edge_shapes() {
            let a = rand_vec(m * k, 57);
            let bt = rand_vec(n * k, 58);
            let mut want = initial_c(m * n, 59);
            reference((m, k, n), &a, (k, 1), &bt, (1, k), &mut want);
            for body in TileBody::supported() {
                let mut c = initial_c(m * n, 59);
                let b = Strided {
                    data: &bt,
                    rs: 1,
                    cs: k,
                };
                let b = RhsSource::Strided(b);
                pool::with_threads(1, || sgemm_rows(body, m, k, n, &a, b, &mut c));
                assert_bits(&c, &want, &format!("nt {body:?} {m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn packed_nn_edge_shapes_bitwise_match_reference() {
        // Plus the regularizer's `T = A·N` against a packed `V × V` kernel,
        // scaled down: `V` off every blocking multiple (300 and 1100 are
        // not multiples of `NR`, `KC` or `NC`; 1100 spans three column
        // panels and five k-panels, so `A` strips are reused across
        // panels), `m` below the in-place-`B` cut-off and across slabs.
        let kernel_shapes = [300, 1100]
            .into_iter()
            .flat_map(|v| [1, 11, 40, 77, 130].map(|m| (m, v, v)));
        for (m, k, n) in edge_shapes().into_iter().chain(kernel_shapes) {
            let a = rand_vec(m * k, 64);
            let b = rand_vec(k * n, 65);
            let packed = PackedB::pack(k, n, &b);
            let mut want = initial_c(m * n, 66);
            reference((m, k, n), &a, (k, 1), &b, (n, 1), &mut want);
            for body in TileBody::supported() {
                for threads in [1, 2] {
                    let mut c = initial_c(m * n, 66);
                    let src = RhsSource::Packed(&packed);
                    pool::with_threads(threads, || sgemm_rows(body, m, k, n, &a, src, &mut c));
                    let what = format!("packed nn {body:?} {m}x{k}x{n} {threads} workers");
                    assert_bits(&c, &want, &what);
                }
            }
        }
    }

    #[test]
    fn packed_b_reads_back_its_source() {
        let (k, n) = (KC + 3, NR + 5);
        let b = rand_vec(k * n, 67);
        let packed = PackedB::pack(k, n, &b);
        assert_eq!((packed.rows(), packed.cols()), (k, n));
        assert_eq!(packed.memory_bytes(), 2 * NR * k * 4);
        for r in 0..k {
            for c in 0..n {
                assert_eq!(packed.get(r, c).to_bits(), b[r * n + c].to_bits());
            }
        }
    }

    #[test]
    fn regularizer_shape_bitwise_equal_across_bodies() {
        // `T = A·N` at the NYTimes-like grid shape (`M = K·v = 400`,
        // `V = 2400`): the product that dominates a ContraTopic step.
        let (m, k, n) = (400, 2400, 2400);
        let a = rand_vec(m * k, 61);
        let b = rand_vec(k * n, 62);
        let mut first: Option<(TileBody, Vec<f32>)> = None;
        for body in TileBody::supported() {
            let mut c = initial_c(m * n, 63);
            sgemm_nn_with(body, m, k, n, &a, &b, &mut c);
            match &first {
                None => first = Some((body, c)),
                Some((b0, c0)) => assert_bits(&c, c0, &format!("reg_xn {body:?} vs {b0:?}")),
            }
        }
    }

    #[test]
    fn nn_packed_path_matches_naive() {
        // One slab of at least `PACK_B_MIN_M` rows packs `B`; `n` spans two
        // column panels and `k` two k-panels, all with ragged ends.
        let (m, k, n) = (PACK_B_MIN_M + 5, KC + 70, NC + 61);
        let a = rand_vec(m * k, 11);
        let b = rand_vec(k * n, 12);
        let mut want = initial_c(m * n, 13);
        reference((m, k, n), &a, (k, 1), &b, (n, 1), &mut want);
        let mut c = initial_c(m * n, 13);
        pool::with_threads(1, || sgemm_nn(m, k, n, &a, &b, &mut c));
        assert_bits(&c, &want, "nn packed path");
    }

    #[test]
    fn nt_above_crossover_bitwise_matches_reference() {
        let (m, k, n) = (64, 512, 256); // 8.4M ≥ 1<<23
        assert!(m * k * n >= NT_VIA_BLOCKED_MIN_FLOPS);
        let a = rand_vec(m * k, 21);
        let bt = rand_vec(n * k, 22);
        let mut want = initial_c(m * n, 23);
        reference((m, k, n), &a, (k, 1), &bt, (1, k), &mut want);
        let mut c = initial_c(m * n, 23);
        sgemm_nt(m, k, n, &a, &bt, &mut c);
        assert_bits(&c, &want, "nt above crossover");
    }

    #[test]
    fn csr_dense_bitwise_matches_sparse_a() {
        let (m, k, n) = (7, 40, 23);
        let mut a = rand_vec(m * k, 31);
        for (idx, v) in a.iter_mut().enumerate() {
            if idx % 5 != 0 {
                *v = 0.0;
            }
        }
        let csr = CsrMatrix::from_dense(m, k, &a);
        let b = rand_vec(k * n, 32);
        let mut dense = vec![0.0; m * n];
        sgemm_nn_sparse_a(m, k, n, &a, &b, &mut dense);
        let mut sparse = vec![0.0; m * n];
        sgemm_csr_dense(&csr, n, &b, &mut sparse);
        for (x, y) in sparse.iter().zip(&dense) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn csr_row_bodies_bitwise_match_dense_nn() {
        // Big enough that four workers each get a slab at the wide `n`s;
        // ~12% dense, with empty rows at the start, middle and end.
        let (m, k) = (700, 400);
        let mut a = rand_vec(m * k, 71);
        for (idx, v) in a.iter_mut().enumerate() {
            let row = idx / k;
            if idx % 8 != 1 || [0, 5, 350, m - 1].contains(&row) {
                *v = 0.0;
            }
        }
        let csr = CsrMatrix::from_dense(m, k, &a);
        // Around the 8- and 16-lane vectors and the 64-column chunk.
        for n in [1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 300] {
            let b = rand_vec(k * n, 72);
            // `C` holds `-0.0`s, which the empty rows must leave as the
            // dense chain does.
            let mut want = initial_c(m * n, 73);
            sgemm_nn(m, k, n, &a, &b, &mut want);
            for body in TileBody::supported() {
                for threads in [1, 2, 4] {
                    let mut got = initial_c(m * n, 73);
                    pool::with_threads(threads, || {
                        sgemm_csr_dense_with(body, &csr, n, &b, &mut got)
                    });
                    let what = format!("csr {body:?} n={n} {threads} workers");
                    assert_bits(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn csr_t_dense_bitwise_matches_tn() {
        let (m, k, n) = (9, 37, 21); // batch x vocab, grad width n
        let mut a = rand_vec(m * k, 33);
        for (idx, v) in a.iter_mut().enumerate() {
            if idx % 4 != 0 {
                *v = 0.0;
            }
        }
        let csr = CsrMatrix::from_dense(m, k, &a);
        let b = rand_vec(m * n, 34);
        let mut dense = vec![0.0; k * n];
        sgemm_tn(m, k, n, &a, &b, &mut dense);
        let mut sparse = vec![0.0; k * n];
        sgemm_csr_t_dense(&csr, n, &b, &mut sparse);
        for (x, y) in sparse.iter().zip(&dense) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn csr_nt_bitwise_matches_nt_on_both_routes() {
        // (m, k, n): `dot4` route below the crossover (k % 4 = 0, 1, 3),
        // blocked route at and above it (k % 4 = 0 and 3).
        let shapes = [
            (7, 40, 5),
            (9, 37, 21),
            (13, 603, 7),
            (64, 2048, 64),
            (70, 3003, 41),
        ];
        for (m, k, n) in shapes {
            let mut a = rand_vec(m * k, 35);
            for (idx, v) in a.iter_mut().enumerate() {
                // ~10% dense, with row 1 empty and some entries -0.0.
                if idx % 10 != 3 || idx / k == 1 {
                    *v = if idx % 7 == 0 { -0.0 } else { 0.0 };
                }
            }
            let csr = CsrMatrix::from_dense(m, k, &a);
            let b = rand_vec(n * k, 36);
            let mut bt = vec![0.0; k * n];
            for j in 0..n {
                for kk in 0..k {
                    bt[kk * n + j] = b[j * k + kk];
                }
            }
            let mut want = vec![0.0; m * n];
            sgemm_nt(m, k, n, &a, &b, &mut want);
            for threads in [1, 2] {
                let mut got = vec![0.0; m * n];
                pool::with_threads(threads, || sgemm_csr_nt(&csr, n, &bt, &mut got));
                let route = if m * k * n >= NT_VIA_BLOCKED_MIN_FLOPS {
                    "blocked"
                } else {
                    "dot4"
                };
                assert_bits(
                    &got,
                    &want,
                    &format!("csr nt {route} {m}x{k}x{n} {threads} workers"),
                );
            }
        }
    }

    #[test]
    fn sddmm_bitwise_matches_nn_at_the_pattern() {
        for (m, k, n) in [(5, 1, 9), (11, 40, 37), (3, 17, 300)] {
            let mut mask = rand_vec(m * n, 37);
            for (idx, v) in mask.iter_mut().enumerate() {
                if idx % 3 == 0 {
                    *v = 0.0;
                }
            }
            let pattern = CsrMatrix::from_dense(m, n, &mask);
            let a = rand_vec(m * k, 38);
            let b = rand_vec(k * n, 39);
            let mut bt = vec![0.0; n * k];
            for kk in 0..k {
                for j in 0..n {
                    bt[j * k + kk] = b[kk * n + j];
                }
            }
            let mut dense = vec![0.0; m * n];
            sgemm_nn(m, k, n, &a, &b, &mut dense);
            let mut got = vec![0.0; pattern.nnz()];
            sddmm_csr(&pattern, k, &a, &bt, &mut got);
            let mut p = 0;
            for i in 0..m {
                for &j in pattern.row(i).0 {
                    let want = dense[i * n + j as usize];
                    assert_eq!(got[p].to_bits(), want.to_bits(), "{m}x{k}x{n} ({i}, {j})");
                    p += 1;
                }
            }
        }
    }

    #[test]
    fn csr_kernels_deterministic_across_worker_counts() {
        let (m, k, n) = (24, 120, 64);
        let mut a = rand_vec(m * k, 41);
        for (idx, v) in a.iter_mut().enumerate() {
            if idx % 7 != 0 {
                *v = 0.0;
            }
        }
        let csr = CsrMatrix::from_dense(m, k, &a);
        let b = rand_vec(k * n, 42);
        let g = rand_vec(m * n, 43);
        let mut ref_fwd: Option<Vec<f32>> = None;
        let mut ref_grad: Option<Vec<f32>> = None;
        for threads in [1, 2, 4] {
            pool::with_threads(threads, || {
                let mut fwd = vec![0.0; m * n];
                sgemm_csr_dense(&csr, n, &b, &mut fwd);
                let mut grad = vec![0.0; k * n];
                sgemm_csr_t_dense(&csr, n, &g, &mut grad);
                match (&ref_fwd, &ref_grad) {
                    (Some(rf), Some(rg)) => {
                        assert!(fwd.iter().zip(rf).all(|(x, y)| x.to_bits() == y.to_bits()));
                        assert!(grad.iter().zip(rg).all(|(x, y)| x.to_bits() == y.to_bits()));
                    }
                    _ => {
                        ref_fwd = Some(fwd);
                        ref_grad = Some(grad);
                    }
                }
            });
        }
    }

    #[test]
    fn accumulates_into_c() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 0.0, 0.0, 2.0];
        let mut c = vec![1.0; 4];
        sgemm_nn(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![3.0, 1.0, 1.0, 3.0]);
    }
}
