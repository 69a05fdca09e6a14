//! Bitwise determinism of the parallel SGEMM kernels.
//!
//! The worker pool partitions every kernel by disjoint *output* slabs (rows
//! for `nn`/`nt`, columns for `tn`), so each output element is accumulated by
//! one worker in the same sequential `k` order no matter how many workers
//! run. These tests pin that invariant: every layout must produce the same
//! bytes under `CT_NUM_THREADS=1` and `CT_NUM_THREADS=4` (simulated via the
//! thread-local `pool::with_threads` override, which exists precisely
//! because mutating process environment races under parallel test threads).

use ct_tensor::sgemm::PackedB;
use ct_tensor::{pool, sgemm};

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

fn assert_bitwise_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs across thread counts: {x} vs {y}"
        );
    }
}

/// Run `f` (which fills and returns a fresh `C`) under both thread counts
/// and require identical bytes. Shapes are large enough that the 4-thread
/// run genuinely partitions (each worker clears the pool's per-worker work
/// floor).
fn check_layout(what: &str, f: impl Fn() -> Vec<f32>) {
    let single = pool::with_threads(1, &f);
    let multi = pool::with_threads(4, &f);
    assert_bitwise_eq(&single, &multi, what);
}

#[test]
fn sgemm_nn_bitwise_deterministic_across_thread_counts() {
    let (m, k, n) = (96, 64, 300); // wide n also exercises the packed path
    let a = rand_vec(m * k, 1);
    let b = rand_vec(k * n, 2);
    check_layout("sgemm_nn", || {
        let mut c = vec![0.0; m * n];
        sgemm::sgemm_nn(m, k, n, &a, &b, &mut c);
        c
    });
}

/// The topic-wise regularizer's products at the NYTimes-like grid shape
/// (`M = K·v = 400` subset rows over a 2400-word kernel): `T = A·N`,
/// `S = T·Aᵀ` and the backward `(G + Gᵀ)·T` — the largest multiplies of
/// training, split across several workers in practice.
#[test]
fn regularizer_shapes_bitwise_deterministic_across_thread_counts() {
    let (m, v) = (400, 2400);
    let a = rand_vec(m * v, 9);
    let n = rand_vec(v * v, 10);
    let g = rand_vec(m * m, 11);
    let t = pool::with_threads(1, || {
        let mut t = vec![0.0; m * v];
        sgemm::sgemm_nn(m, v, v, &a, &n, &mut t);
        t
    });
    check_layout("regularizer T = A·N", || {
        let mut c = vec![0.0; m * v];
        sgemm::sgemm_nn(m, v, v, &a, &n, &mut c);
        c
    });
    check_layout("regularizer S = T·Aᵀ", || {
        let mut c = vec![0.0; m * m];
        sgemm::sgemm_nt(m, v, m, &t, &a, &mut c);
        c
    });
    check_layout("regularizer dA = (G + Gᵀ)·T", || {
        let mut c = vec![0.0; m * v];
        sgemm::sgemm_nn(m, m, v, &g, &t, &mut c);
        c
    });
}

/// A product against a pre-packed `B` (the similarity kernel as the
/// regularizer holds it) must give the bits of the same product against
/// the row-major `B`, at one and at two workers. `m` sits below the
/// in-place-`B` cut-off (64 rows), at one and several row strips and across
/// worker slabs; `V = 1100` is off every blocking multiple and spans
/// several column panels and k-panels. (Every tile body is pinned by the
/// `sgemm` unit tests.)
#[test]
fn packed_kernel_products_bitwise_equal_row_major_across_workers() {
    let v = 1100;
    let n = rand_vec(v * v, 12);
    let packed = PackedB::pack(v, v, &n);
    for m in [1, 11, 40, 77, 130] {
        let a = rand_vec(m * v, 13);
        let want = pool::with_threads(1, || {
            let mut c = vec![0.0; m * v];
            sgemm::sgemm_nn(m, v, v, &a, &n, &mut c);
            c
        });
        for threads in [1, 2] {
            let got = pool::with_threads(threads, || {
                let mut c = vec![0.0; m * v];
                sgemm::sgemm_nn_packed(m, &a, &packed, &mut c);
                c
            });
            let what = format!("packed {m}x{v}x{v} {threads} workers");
            assert_bitwise_eq(&got, &want, &what);
        }
    }
}

#[test]
fn sgemm_nt_bitwise_deterministic_across_thread_counts() {
    let (m, k, n) = (256, 80, 120);
    let a = rand_vec(m * k, 3);
    let b = rand_vec(n * k, 4);
    check_layout("sgemm_nt", || {
        let mut c = vec![0.0; m * n];
        sgemm::sgemm_nt(m, k, n, &a, &b, &mut c);
        c
    });
}

#[test]
fn sgemm_tn_bitwise_deterministic_across_thread_counts() {
    let (k, m, n) = (128, 64, 200);
    let a = rand_vec(k * m, 5);
    let b = rand_vec(k * n, 6);
    check_layout("sgemm_tn", || {
        let mut c = vec![0.0; m * n];
        sgemm::sgemm_tn(k, m, n, &a, &b, &mut c);
        c
    });
}

#[test]
fn sparse_kernel_bitwise_deterministic_across_thread_counts() {
    let (m, k, n) = (256, 64, 150);
    let mut a = rand_vec(m * k, 7);
    for (i, v) in a.iter_mut().enumerate() {
        if i % 3 != 0 {
            *v = 0.0;
        }
    }
    let b = rand_vec(k * n, 8);
    check_layout("sgemm_nn_sparse_a", || {
        let mut c = vec![0.0; m * n];
        sgemm::sgemm_nn_sparse_a(m, k, n, &a, &b, &mut c);
        c
    });
}
