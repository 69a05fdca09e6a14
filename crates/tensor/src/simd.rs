//! Explicitly vectorized inner micro-kernels for the SGEMM paths.
//!
//! Four primitives cover every hot inner loop in [`crate::sgemm`]:
//!
//! - the **register tile** (`tile`, crate-private): a block of up to
//!   `MR × NR` (12 × 32) elements of `C` held in registers while it
//!   accumulates one packed k-panel of `A` (`MR` slots per `k` step)
//!   against one strip of `B` (`NR` values per `k` step). It is the only
//!   kernel of the dense `nn`, `tn` and large-`nt` products.
//! - the **CSR row chunk** (`csr_row`, crate-private): up to
//!   `CSR_CHUNK` (64) elements of one output row held in registers across
//!   all nonzeros of that row of a CSR `A` — the body of
//!   `sgemm_csr_dense`. It runs on the same three bodies as the tile.
//! - [`axpy`]: `c[j] += a * b[j]` over a contiguous span — the innermost
//!   loop of the sparse-A and transposed-CSR kernels and of `Tensor::axpy`.
//! - [`dot4`]: a dot product accumulated in **four interleaved partial
//!   sums** (lane `j` holds the terms with index ≡ `j` mod 4) — the exact
//!   accumulation grouping of the small `nt` dot-product kernel.
//!
//! Dispatch is per-architecture with a portable fallback, by CPUID alone
//! (`is_x86_feature_detected!`, cached, see [`level`]). The tile has three
//! bodies over one packing geometry: on `x86_64` with AVX-512F it keeps the
//! whole 12 × 32 tile in 24 `zmm` accumulators; with AVX2 it runs a 6 × 16
//! `ymm` kernel on each quadrant of the tile; elsewhere a portable loop.
//! `axpy` selects an AVX2 body over the SSE2 baseline. All variants are
//! **bitwise identical** to the scalar loops:
//!
//! - every output element sees `c = c + (a · b)` once per `k`, in ascending
//!   `k` order, as a separate multiply then add. The tile loads `C` into its
//!   accumulators and stores them back (`C +=` semantics); it never seeds an
//!   accumulator with zero, since `0.0 + -0.0` would turn a `-0.0` in `C`
//!   into `+0.0`.
//! - `axpy` is lane-independent (each output element sees the same single
//!   multiply-add), and `dot4`'s SIMD lanes reproduce the scalar version's
//!   four accumulators and their exact combine order.
//!
//! No FMA is ever emitted — a fused multiply-add rounds once instead of
//! twice and would break bitwise equality between the dispatch variants
//! (and with it the cross-worker determinism contract, since different
//! machines could pick different paths).

/// Rows of the register tile.
pub(crate) const MR: usize = 12;
/// Columns of the register tile: two 16-lane AVX-512 vectors.
pub(crate) const NR: usize = 32;

/// Which body the register tile runs. All produce the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TileBody {
    /// Twenty-four `zmm` accumulators; `x86_64` with AVX-512F only.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// A 6 × 16 kernel of twelve `ymm` accumulators, run on each quadrant
    /// of the tile; `x86_64` with AVX2 only.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Plain loops over a stack tile, for every CPU.
    Portable,
}

impl TileBody {
    /// The body this host runs: the widest one its CPU supports.
    pub(crate) fn host() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if avx512_available() {
                return TileBody::Avx512;
            }
            if avx2_available() {
                return TileBody::Avx2;
            }
        }
        TileBody::Portable
    }

    /// Every body this host's CPU supports, so tests cover the narrower
    /// ones too.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Self> {
        #[allow(unused_mut)] // only x86_64 pushes more
        let mut bodies = vec![TileBody::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_available() {
                bodies.push(TileBody::Avx2);
            }
            if avx512_available() {
                bodies.push(TileBody::Avx512);
            }
        }
        bodies
    }
}

/// The SIMD level the kernels select on this host: `"avx512"` (the tile's
/// AVX-512 body; `axpy` runs AVX2 there), `"avx2"`, `"sse2"` (the `x86_64`
/// baseline) or `"scalar"` (portable loops elsewhere).
pub fn level() -> &'static str {
    match TileBody::host() {
        #[cfg(target_arch = "x86_64")]
        TileBody::Avx512 => "avx512",
        #[cfg(target_arch = "x86_64")]
        TileBody::Avx2 => "avx2",
        TileBody::Portable if cfg!(target_arch = "x86_64") => "sse2",
        TileBody::Portable => "scalar",
    }
}

/// Calls `$f::<R>` (or `$f::<R, NV>`) for the runtime row count `$rows`,
/// one monomorphized body per listed `R`.
macro_rules! by_rows {
    ($rows:expr, [$($r:literal)*], $f:ident<$nv:literal> $args:tt) => {
        match $rows {
            $($r => $f::<$r, $nv> $args,)*
            _ => unreachable!("tile rows must be 1..=MR"),
        }
    };
    ($rows:expr, [$($r:literal)*], $f:ident $args:tt) => {
        match $rows {
            $($r => $f::<$r> $args,)*
            _ => unreachable!("tile rows must be 1..=MR"),
        }
    };
}

/// `C[r][j] = C[r][j] + a[kk·MR + r] · b[kk·b_rs + j]` for `kk` ascending
/// over `0..kc`, on the first `rows` (1 to `MR`) rows and `cols` (1 to
/// `NR`) columns of the `MR × NR` tile of `C` at `c` (row stride `ldc`).
/// A short tile at the bottom or right edge of `C` thus touches only its
/// own elements.
///
/// # Safety
///
/// `a` must be readable for `kc · MR` values, `b` for `NR` values at each
/// of `b + kk·b_rs`, and `c` readable and writable for `cols` values at
/// each of `c + r·ldc` (`r < rows`), with no other thread touching them.
/// `body` must be supported by the CPU (as [`TileBody::host`] guarantees).
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn tile(
    body: TileBody,
    (rows, cols): (usize, usize),
    kc: usize,
    a: *const f32,
    b: *const f32,
    b_rs: usize,
    c: *mut f32,
    ldc: usize,
) {
    debug_assert!((1..=MR).contains(&rows) && (1..=NR).contains(&cols));
    // SAFETY: the pointer contract is the caller's (see `# Safety`); the
    // AVX bodies are only constructed on a CPU that reports the feature.
    match body {
        #[cfg(target_arch = "x86_64")]
        TileBody::Avx512 => {
            // The last 16-lane vector's valid columns; the tile runs one
            // vector per row when 16 columns or fewer are valid.
            let last = match cols % 16 {
                0 => u16::MAX,
                w => (1u16 << w) - 1,
            };
            if cols > 16 {
                by_rows!(
                    rows,
                    [1 2 3 4 5 6 7 8 9 10 11 12],
                    tile_avx512<2>(kc, a, b, b_rs, c, ldc, last)
                )
            } else {
                by_rows!(
                    rows,
                    [1 2 3 4 5 6 7 8 9 10 11 12],
                    tile_avx512<1>(kc, a, b, b_rs, c, ldc, last)
                )
            }
        }
        #[cfg(target_arch = "x86_64")]
        TileBody::Avx2 => tile_avx2((rows, cols), kc, a, b, b_rs, c, ldc),
        TileBody::Portable => {
            by_rows!(
                rows,
                [1 2 3 4 5 6 7 8 9 10 11 12],
                tile_portable(cols, kc, a, b, b_rs, c, ldc)
            )
        }
    }
}

/// Portable tile: the same per-element operation order as the AVX bodies,
/// on a stack copy of the `R × NR` tile of which `cols` columns are valid.
///
/// # Safety
///
/// As for [`tile`], with `rows = R`.
unsafe fn tile_portable<const R: usize>(
    cols: usize,
    kc: usize,
    a: *const f32,
    b: *const f32,
    b_rs: usize,
    c: *mut f32,
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row[..cols].copy_from_slice(std::slice::from_raw_parts(c.add(r * ldc), cols));
    }
    for kk in 0..kc {
        let a_k = std::slice::from_raw_parts(a.add(kk * MR), R);
        let b_k = std::slice::from_raw_parts(b.add(kk * b_rs), NR);
        for (row, &av) in acc.iter_mut().zip(a_k) {
            for (cv, &bv) in row.iter_mut().zip(b_k) {
                *cv += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        std::slice::from_raw_parts_mut(c.add(r * ldc), cols).copy_from_slice(&row[..cols]);
    }
}

/// AVX-512 tile: `NV · R` accumulators (`NV` 16-lane vectors per row;
/// twenty-four at `R = MR`, `NV = 2`) live in `zmm` registers for the
/// whole k-panel; each `k` step loads `NV` vectors of the `B` strip and
/// broadcasts `R` values of the `A` panel. The last vector of each row is
/// loaded and stored under the `last` lane mask, so a ragged right edge
/// needs no copy. Separate `mul` + `add` — see the module docs for why FMA
/// is forbidden.
///
/// # Safety
///
/// As for [`tile`], with `rows = R` and `cols` the `16·(NV − 1)` columns
/// of the full vectors plus the lanes set in `last`; the CPU must support
/// AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512<const R: usize, const NV: usize>(
    kc: usize,
    a: *const f32,
    b: *const f32,
    b_rs: usize,
    c: *mut f32,
    ldc: usize,
    last: u16,
) {
    use std::arch::x86_64::*;
    // Every accumulator is loaded from `C` before the first add; the zero
    // fill only gives the array a value to start from.
    let mut acc = [[_mm512_setzero_ps(); NV]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        let c_r = c.add(r * ldc);
        for (v, x) in row.iter_mut().enumerate() {
            *x = if v + 1 < NV {
                _mm512_loadu_ps(c_r.add(16 * v))
            } else {
                _mm512_maskz_loadu_ps(last, c_r.add(16 * v))
            };
        }
    }
    let mut ap = a;
    let mut bp = b;
    for _ in 0..kc {
        let mut bv = [_mm512_setzero_ps(); NV];
        for (v, x) in bv.iter_mut().enumerate() {
            *x = _mm512_loadu_ps(bp.add(16 * v));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ap.add(r));
            for (x, &bx) in row.iter_mut().zip(&bv) {
                *x = _mm512_add_ps(*x, _mm512_mul_ps(av, bx));
            }
        }
        ap = ap.add(MR);
        bp = bp.add(b_rs);
    }
    for (r, row) in acc.iter().enumerate() {
        let c_r = c.add(r * ldc);
        for (v, &x) in row.iter().enumerate() {
            if v + 1 < NV {
                _mm512_storeu_ps(c_r.add(16 * v), x);
            } else {
                _mm512_mask_storeu_ps(c_r.add(16 * v), last, x);
            }
        }
    }
}

/// Rows and columns of the AVX2 kernel: one quadrant of the tile.
#[cfg(target_arch = "x86_64")]
const QR: usize = MR / 2;
#[cfg(target_arch = "x86_64")]
const QC: usize = NR / 2;

/// AVX2 tile: the `QR × QC` (6 × 16) kernel on each quadrant of the
/// `rows × cols` tile that holds valid elements, each over the whole
/// k-panel. A quadrant with a ragged right edge runs on a stack copy and
/// stores back only its valid columns.
///
/// # Safety
///
/// As for [`tile`]; the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(
    (rows, cols): (usize, usize),
    kc: usize,
    a: *const f32,
    b: *const f32,
    b_rs: usize,
    c: *mut f32,
    ldc: usize,
) {
    for r0 in (0..rows).step_by(QR) {
        let qr = QR.min(rows - r0);
        let a_q = a.add(r0);
        for c0 in (0..cols).step_by(QC) {
            let qc = QC.min(cols - c0);
            let (b_q, c_q) = (b.add(c0), c.add(r0 * ldc + c0));
            if qc == QC {
                by_rows!(qr, [1 2 3 4 5 6], quadrant_avx2(kc, a_q, b_q, b_rs, c_q, ldc));
                continue;
            }
            let mut edge = [0.0f32; QR * QC];
            for r in 0..qr {
                let src = std::slice::from_raw_parts(c_q.add(r * ldc), qc);
                edge[r * QC..r * QC + qc].copy_from_slice(src);
            }
            let e = edge.as_mut_ptr();
            by_rows!(qr, [1 2 3 4 5 6], quadrant_avx2(kc, a_q, b_q, b_rs, e, QC));
            for r in 0..qr {
                let dst = std::slice::from_raw_parts_mut(c_q.add(r * ldc), qc);
                dst.copy_from_slice(&edge[r * QC..r * QC + qc]);
            }
        }
    }
}

/// One AVX2 quadrant: `2·R` accumulators (two 8-lane halves per row;
/// twelve at `R = QR`) live in `ymm` registers for the whole k-panel; each
/// `k` step loads one 16-wide row of the `B` strip and broadcasts `R`
/// values of the `A` panel (stride `MR`). Separate `mul` + `add` — see the
/// module docs for why FMA is forbidden.
///
/// # Safety
///
/// `a` readable for `kc · MR` values, `b` for `QC` values at each of
/// `b + kk·b_rs`, `c` readable and writable for `QC` values at each of
/// `c + r·ldc` (`r < R`); the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quadrant_avx2<const R: usize>(
    kc: usize,
    a: *const f32,
    b: *const f32,
    b_rs: usize,
    c: *mut f32,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    // Every accumulator is loaded from `C` before the first add; the zero
    // fill only gives the arrays a value to start from.
    let mut lo = [_mm256_setzero_ps(); R];
    let mut hi = [_mm256_setzero_ps(); R];
    for r in 0..R {
        lo[r] = _mm256_loadu_ps(c.add(r * ldc));
        hi[r] = _mm256_loadu_ps(c.add(r * ldc + 8));
    }
    let mut ap = a;
    let mut bp = b;
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        for r in 0..R {
            let av = _mm256_set1_ps(*ap.add(r));
            lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, b0));
            hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, b1));
        }
        ap = ap.add(MR);
        bp = bp.add(b_rs);
    }
    for r in 0..R {
        _mm256_storeu_ps(c.add(r * ldc), lo[r]);
        _mm256_storeu_ps(c.add(r * ldc + 8), hi[r]);
    }
}

/// Widest run of output columns one [`csr_row`] call keeps in registers:
/// four `zmm` or eight `ymm` accumulators.
pub(crate) const CSR_CHUNK: usize = 64;

/// `c[j] = (c[j] + 0.0) + v·b[col·ldb + j]` for each stored `(col, v)` of
/// one CSR row, in storage (ascending column) order, over the `w` (1 to
/// [`CSR_CHUNK`]) columns at `c`. Each element is held in a register for
/// the whole row and stored once. The `+ 0.0` turns a `-0.0` in `C` into
/// `+0.0`, as the dense chain's first zero term `0·b` would, so that a
/// row with no nonzeros matches the dense product too; every other
/// value passes through it unchanged.
///
/// # Safety
///
/// `b + col·ldb` must be readable for `w` values for every `col` in
/// `cols`, and `c` readable and writable for `w` values with no other
/// thread touching them. `body` must be supported by the CPU (as
/// [`TileBody::host`] guarantees).
#[inline]
pub(crate) unsafe fn csr_row(
    body: TileBody,
    (cols, vals): (&[u32], &[f32]),
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    w: usize,
) {
    debug_assert!((1..=CSR_CHUNK).contains(&w) && cols.len() == vals.len());
    // SAFETY: the pointer contract is the caller's (see `# Safety`); the
    // AVX bodies are only constructed on a CPU that reports the feature.
    match body {
        #[cfg(target_arch = "x86_64")]
        TileBody::Avx512 => {
            let last = match w % 16 {
                0 => u16::MAX,
                r => (1u16 << r) - 1,
            };
            let args = (cols, vals, b, ldb, c, last);
            match w.div_ceil(16) {
                1 => csr_row_avx512::<1>(args),
                2 => csr_row_avx512::<2>(args),
                3 => csr_row_avx512::<3>(args),
                4 => csr_row_avx512::<4>(args),
                _ => unreachable!("chunk wider than CSR_CHUNK"),
            }
        }
        #[cfg(target_arch = "x86_64")]
        TileBody::Avx2 => {
            let args = (cols, vals, b, ldb, c, w);
            match w.div_ceil(8) {
                1 => csr_row_avx2::<1>(args),
                2 => csr_row_avx2::<2>(args),
                3 => csr_row_avx2::<3>(args),
                4 => csr_row_avx2::<4>(args),
                5 => csr_row_avx2::<5>(args),
                6 => csr_row_avx2::<6>(args),
                7 => csr_row_avx2::<7>(args),
                8 => csr_row_avx2::<8>(args),
                _ => unreachable!("chunk wider than CSR_CHUNK"),
            }
        }
        TileBody::Portable => csr_row_portable(cols, vals, b, ldb, c, w),
    }
}

/// Portable CSR row chunk: the per-element operation order of the AVX
/// bodies, on a stack copy of the chunk.
///
/// # Safety
///
/// As for [`csr_row`].
unsafe fn csr_row_portable(
    cols: &[u32],
    vals: &[f32],
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    w: usize,
) {
    let mut acc = [0.0f32; CSR_CHUNK];
    let acc = &mut acc[..w];
    for (x, &cv) in acc.iter_mut().zip(std::slice::from_raw_parts(c, w)) {
        *x = cv + 0.0;
    }
    for (&col, &v) in cols.iter().zip(vals) {
        let b_row = std::slice::from_raw_parts(b.add(col as usize * ldb), w);
        for (x, &bv) in acc.iter_mut().zip(b_row) {
            *x += v * bv;
        }
    }
    std::slice::from_raw_parts_mut(c, w).copy_from_slice(acc);
}

/// AVX-512 CSR row chunk: `NV` 16-lane accumulators; the last is loaded
/// and stored under the `last` lane mask, and `B`'s last vector is read
/// under it too, so nothing past the chunk is touched. Separate `mul` +
/// `add` — see the module docs for why FMA is forbidden.
///
/// # Safety
///
/// As for [`csr_row`], with `w` the `16·(NV − 1)` columns of the full
/// vectors plus the lanes set in `last`; the CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn csr_row_avx512<const NV: usize>(
    (cols, vals, b, ldb, c, last): (&[u32], &[f32], *const f32, usize, *mut f32, u16),
) {
    use std::arch::x86_64::*;
    let load = |p: *const f32, v: usize| {
        if v + 1 < NV {
            _mm512_loadu_ps(p.add(16 * v))
        } else {
            _mm512_maskz_loadu_ps(last, p.add(16 * v))
        }
    };
    let zero = _mm512_setzero_ps();
    let mut acc = [zero; NV];
    for (v, x) in acc.iter_mut().enumerate() {
        *x = _mm512_add_ps(load(c, v), zero);
    }
    for (&col, &val) in cols.iter().zip(vals) {
        let bp = b.add(col as usize * ldb);
        let av = _mm512_set1_ps(val);
        for (v, x) in acc.iter_mut().enumerate() {
            *x = _mm512_add_ps(*x, _mm512_mul_ps(av, load(bp, v)));
        }
    }
    for (v, &x) in acc.iter().enumerate() {
        if v + 1 < NV {
            _mm512_storeu_ps(c.add(16 * v), x);
        } else {
            _mm512_mask_storeu_ps(c.add(16 * v), last, x);
        }
    }
}

/// AVX2 CSR row chunk: `NV` 8-lane accumulators, the last one read and
/// written under a lane mask when `w` is not a multiple of 8 (`B`'s last
/// vector too). Separate `mul` + `add` — see the module docs.
///
/// # Safety
///
/// As for [`csr_row`], with `8·(NV − 1) < w ≤ 8·NV`; the CPU must
/// support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn csr_row_avx2<const NV: usize>(
    (cols, vals, b, ldb, c, w): (&[u32], &[f32], *const f32, usize, *mut f32, usize),
) {
    use std::arch::x86_64::*;
    let tail = w - 8 * (NV - 1);
    let mask = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail as i32), mask);
    let load = |p: *const f32, v: usize| {
        if v + 1 < NV {
            _mm256_loadu_ps(p.add(8 * v))
        } else {
            _mm256_maskload_ps(p.add(8 * v), mask)
        }
    };
    let zero = _mm256_setzero_ps();
    let mut acc = [zero; NV];
    for (v, x) in acc.iter_mut().enumerate() {
        *x = _mm256_add_ps(load(c, v), zero);
    }
    for (&col, &val) in cols.iter().zip(vals) {
        let bp = b.add(col as usize * ldb);
        let av = _mm256_set1_ps(val);
        for (v, x) in acc.iter_mut().enumerate() {
            *x = _mm256_add_ps(*x, _mm256_mul_ps(av, load(bp, v)));
        }
    }
    for (v, &x) in acc.iter().enumerate() {
        if v + 1 < NV {
            _mm256_storeu_ps(c.add(8 * v), x);
        } else {
            _mm256_maskstore_ps(c.add(8 * v), mask, x);
        }
    }
}

/// `c[j] += a * b[j]` for every `j`. Panics in debug builds on length
/// mismatch; the slices must be equal length.
#[inline]
pub fn axpy(c: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(c.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if c.len() >= 8 && avx2_available() {
            // SAFETY: guarded by the cached CPUID check above.
            unsafe { axpy_avx2(c, a, b) };
            return;
        }
        // SSE2 is part of the x86_64 baseline: no runtime check needed.
        // SAFETY: always available on x86_64.
        unsafe { axpy_sse2(c, a, b) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    axpy_scalar(c, a, b);
}

/// Dot product of `a` and `b` using four interleaved accumulators,
/// combined as `((acc0 + acc1) + acc2) + acc3`, then a scalar tail.
#[inline]
pub fn dot4(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { dot4_sse2(a, b) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    dot4_scalar(a, b)
}

#[allow(dead_code)] // the fallback body; also the reference for the tests
fn axpy_scalar(c: &mut [f32], a: f32, b: &[f32]) {
    for (cv, &bv) in c.iter_mut().zip(b) {
        *cv += a * bv;
    }
}

#[allow(dead_code)] // the fallback body; also the reference for the tests
fn dot4_scalar(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    let mut idx = 0;
    while idx + 4 <= k {
        acc0 += a[idx] * b[idx];
        acc1 += a[idx + 1] * b[idx + 1];
        acc2 += a[idx + 2] * b[idx + 2];
        acc3 += a[idx + 3] * b[idx + 3];
        idx += 4;
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    while idx < k {
        acc += a[idx] * b[idx];
        idx += 1;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    use std::sync::OnceLock;
    static AVX512: OnceLock<bool> = OnceLock::new();
    *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// AVX2 axpy: two 8-lane vectors per iteration (explicit 2× unroll), an
/// 8-lane cleanup loop, then a scalar tail. Separate `mul` + `add` — see
/// the module docs for why FMA is forbidden.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(c: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::*;
    let n = c.len();
    let cp = c.as_mut_ptr();
    let bp = b.as_ptr();
    let av = _mm256_set1_ps(a);
    let mut i = 0usize;
    while i + 16 <= n {
        let b0 = _mm256_loadu_ps(bp.add(i));
        let b1 = _mm256_loadu_ps(bp.add(i + 8));
        let c0 = _mm256_loadu_ps(cp.add(i));
        let c1 = _mm256_loadu_ps(cp.add(i + 8));
        let r0 = _mm256_add_ps(c0, _mm256_mul_ps(av, b0));
        let r1 = _mm256_add_ps(c1, _mm256_mul_ps(av, b1));
        _mm256_storeu_ps(cp.add(i), r0);
        _mm256_storeu_ps(cp.add(i + 8), r1);
        i += 16;
    }
    while i + 8 <= n {
        let b0 = _mm256_loadu_ps(bp.add(i));
        let c0 = _mm256_loadu_ps(cp.add(i));
        _mm256_storeu_ps(cp.add(i), _mm256_add_ps(c0, _mm256_mul_ps(av, b0)));
        i += 8;
    }
    while i < n {
        *cp.add(i) += a * *bp.add(i);
        i += 1;
    }
}

/// SSE2 axpy: 4-lane body plus scalar tail.
#[cfg(target_arch = "x86_64")]
unsafe fn axpy_sse2(c: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::*;
    let n = c.len();
    let cp = c.as_mut_ptr();
    let bp = b.as_ptr();
    let av = _mm_set1_ps(a);
    let mut i = 0usize;
    while i + 4 <= n {
        let b0 = _mm_loadu_ps(bp.add(i));
        let c0 = _mm_loadu_ps(cp.add(i));
        _mm_storeu_ps(cp.add(i), _mm_add_ps(c0, _mm_mul_ps(av, b0)));
        i += 4;
    }
    while i < n {
        *cp.add(i) += a * *bp.add(i);
        i += 1;
    }
}

/// SSE2 dot product whose four vector lanes are exactly the scalar
/// version's four accumulators (lane `j` sums the terms with index ≡ `j`
/// mod 4), combined in the same `((l0 + l1) + l2) + l3` order.
#[cfg(target_arch = "x86_64")]
unsafe fn dot4_sse2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let k = a.len();
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut accv = _mm_setzero_ps();
    let mut idx = 0usize;
    while idx + 4 <= k {
        let av = _mm_loadu_ps(ap.add(idx));
        let bv = _mm_loadu_ps(bp.add(idx));
        accv = _mm_add_ps(accv, _mm_mul_ps(av, bv));
        idx += 4;
    }
    let mut lanes = [0.0f32; 4];
    _mm_storeu_ps(lanes.as_mut_ptr(), accv);
    let mut acc = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
    while idx < k {
        acc += *ap.add(idx) * *bp.add(idx);
        idx += 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
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
    fn axpy_bitwise_matches_scalar() {
        // Lengths straddle every unroll boundary (16, 8, 4, tails).
        for n in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 600] {
            let b = rand_vec(n, 1);
            let mut c_simd = rand_vec(n, 2);
            let mut c_ref = c_simd.clone();
            axpy(&mut c_simd, 0.37, &b);
            axpy_scalar(&mut c_ref, 0.37, &b);
            for (x, y) in c_simd.iter().zip(&c_ref) {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn dot4_bitwise_matches_scalar() {
        for n in [0, 1, 3, 4, 5, 7, 8, 21, 64, 600, 601] {
            let a = rand_vec(n, 3);
            let b = rand_vec(n, 4);
            assert_eq!(
                dot4(&a, &b).to_bits(),
                dot4_scalar(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }
}
