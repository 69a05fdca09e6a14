//! Property-based tests of the tensor/autodiff substrate invariants.

use std::sync::Arc;

use ct_tensor::{pool, CsrMatrix, Tape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a tensor with the given shape and bounded entries.
fn tensor_strat(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-5.0f32..5.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, rows, cols))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn softmax_rows_always_on_simplex(t in tensor_strat(4, 7), temp in 0.1f32..3.0) {
        let s = t.softmax_rows(temp);
        for r in 0..4 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn matmul_transpose_identity(a in tensor_strat(3, 5), b in tensor_strat(5, 4)) {
        // (A B)^T == B^T A^T
        let left = a.matmul(&b).transposed();
        let right = b.transposed().matmul(&a.transposed());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_nt_tn_consistent(a in tensor_strat(3, 6), b in tensor_strat(4, 6)) {
        let nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transposed());
        for (x, y) in nt.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn normalize_rows_l1_is_idempotent(t in tensor_strat(3, 6)) {
        let mut a = t.map(f32::abs);
        a.normalize_rows_l1();
        let mut b = a.clone();
        b.normalize_rows_l1();
        for (x, y) in a.data().iter().zip(b.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn top_k_row_is_sorted_and_unique(t in tensor_strat(1, 12), k in 1usize..12) {
        let idx = t.top_k_row(0, k);
        prop_assert_eq!(idx.len(), k);
        let set: std::collections::HashSet<_> = idx.iter().collect();
        prop_assert_eq!(set.len(), k);
        for w in idx.windows(2) {
            prop_assert!(t.get(0, w[0]) >= t.get(0, w[1]));
        }
    }

    #[test]
    fn top_k_indices_is_a_prefix_of_the_stable_descending_sort(
        row in proptest::collection::vec(0u32..4, 0..40),
        k in 0usize..45,
    ) {
        // Four distinct values, so most rows carry ties: they must go to
        // the lower index, as a stable sort leaves them.
        let row: Vec<f32> = row.into_iter().map(|v| v as f32).collect();
        let mut expected: Vec<usize> = (0..row.len()).collect();
        expected.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
        expected.truncate(k);
        prop_assert_eq!(ct_tensor::top_k_indices(&row, k), expected);
    }

    #[test]
    fn sum_matches_reduction_chain(t in tensor_strat(4, 5)) {
        // sum_all == sum of row sums == sum of column sums.
        let tape = Tape::new();
        let v = tape.constant(t.clone());
        let total = v.sum_all().scalar_value();
        let via_rows = v.sum_axis1().sum_all().scalar_value();
        let via_cols = v.sum_axis0().sum_all().scalar_value();
        prop_assert!((total - via_rows).abs() < 1e-3);
        prop_assert!((total - via_cols).abs() < 1e-3);
    }

    #[test]
    fn gradient_of_linear_fn_is_exact(t in tensor_strat(3, 4), w in tensor_strat(3, 4)) {
        // d/dx sum(w ⊙ x) == w exactly, independent of x.
        let tape = Tape::new();
        let x = tape.leaf(t);
        let wv = tape.constant(w.clone());
        let loss = x.mul(wv).sum_all();
        let grads = tape.backward(loss);
        let g = grads.get(x).unwrap();
        for (a, b) in g.data().iter().zip(w.data()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_grad_rows_sum_to_zero(t in tensor_strat(3, 5), w in tensor_strat(3, 5)) {
        // Softmax output is shift-invariant per row, so the gradient of any
        // downstream loss w.r.t. the logits must sum to ~0 per row.
        let tape = Tape::new();
        let x = tape.leaf(t);
        let wv = tape.constant(w);
        let loss = x.softmax_rows(1.0).mul(wv).sum_all();
        let grads = tape.backward(loss);
        let g = grads.get(x).unwrap();
        for r in 0..3 {
            let s: f32 = g.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-4, "row {r} grad sums to {s}");
        }
    }

    #[test]
    fn logsumexp_bounds(t in tensor_strat(3, 6)) {
        // max <= lse <= max + ln(n)
        let tape = Tape::new();
        let x = tape.constant(t.clone());
        let lse = x.logsumexp_rows();
        for r in 0..3 {
            let m = t.row(r).iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let v = lse.value().get(r, 0);
            prop_assert!(v >= m - 1e-4);
            prop_assert!(v <= m + (6.0f32).ln() + 1e-4);
        }
    }

    #[test]
    fn selu_fixed_point_statistics(t in tensor_strat(4, 8)) {
        // SELU is designed to keep activations roughly standardized; at
        // minimum it must be monotone and pass through 0.
        let tape = Tape::new();
        let x = tape.constant(t.clone());
        let y = x.selu().value();
        for (a, b) in t.data().iter().zip(y.data()) {
            if *a > 0.0 {
                prop_assert!(*b > 0.0);
            } else {
                prop_assert!(*b <= 0.0);
            }
        }
        let zero = tape.constant(Tensor::zeros(1, 1)).selu();
        prop_assert!(zero.value().data()[0].abs() < 1e-7);
    }

    #[test]
    fn clamp_min_is_lower_bound(t in tensor_strat(3, 4), c in -2.0f32..2.0) {
        let tape = Tape::new();
        let y = tape.constant(t).clamp_min(c).value();
        prop_assert!(y.data().iter().all(|&v| v >= c));
    }

    #[test]
    fn exp_ln_roundtrip_grad_is_one(t in tensor_strat(2, 4)) {
        // d/dx sum(ln(exp(x))) == 1 everywhere.
        let tape = Tape::new();
        let x = tape.leaf(t.map(|v| v.clamp(-3.0, 3.0)));
        let loss = x.exp().ln_clamped(1e-20).sum_all();
        let grads = tape.backward(loss);
        for &g in grads.get(x).unwrap().data() {
            prop_assert!((g - 1.0).abs() < 1e-3, "grad {g}");
        }
    }
}

/// `(B, V, K)` shapes for the fused bag-of-words likelihood: the `dθ`
/// product's dense-equivalent `B·V·K` lies below `sgemm_nt`'s blocked-route
/// crossover (2^23) for the first two and at or above it for the rest,
/// with `V % 4` both 0 and 3 on each side. The last is the NYTimes-like
/// micro-batch.
const BOW_SHAPES: [(usize, usize, usize); 5] = [
    (16, 600, 12),
    (9, 603, 7),
    (200, 1027, 41),
    (64, 3200, 41),
    (256, 2400, 40),
];

/// A softmax `θ (B, K)` with exact zeros (every third entry of row 1, and
/// all of row 2, so its `θ·β` row is 0 < eps), a softmax `β (K, V)` with
/// its first column pushed under eps, and a ~3%-dense count batch whose
/// row 0 is empty.
fn bow_operands(b: usize, v: usize, k: usize, seed: u64) -> (Tensor, Tensor, CsrMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut theta = Tensor::randn(b, k, 1.0, &mut rng).softmax_rows(1.0);
    for c in (0..k).step_by(3) {
        theta.set(1, c, 0.0);
    }
    theta.row_mut(2).fill(0.0);
    let mut beta = Tensor::randn(k, v, 2.0, &mut rng).softmax_rows(1.0);
    for t in 0..k {
        beta.set(t, 0, 1e-13);
    }
    let x = CsrMatrix::from_rows(
        b,
        v,
        (0..b).map(|i| {
            let mut row = Vec::new();
            for j in 0..v {
                if i != 0 && (j == 0 || rng.gen::<f32>() < 0.03) {
                    row.push((j as u32, rng.gen_range(1..5) as f32));
                }
            }
            row
        }),
    );
    (theta, beta, x)
}

/// Value, `dθ` and `dβ` of `scale · Σ x ⊙ ln max(θ·β, eps)`, fused or as
/// the dense chain.
fn bow_loss_and_grads(
    theta: &Tensor,
    beta: &Tensor,
    x: &Arc<Tensor>,
    fused: bool,
) -> (f32, Tensor, Tensor) {
    let tape = Tape::new();
    let (t, bv) = (tape.leaf(theta.clone()), tape.leaf(beta.clone()));
    let ll = if fused {
        t.bow_log_likelihood(bv, x, 1e-10)
    } else {
        t.matmul(bv).ln_clamped(1e-10).mul_const(x).sum_all()
    };
    let loss = ll.scale(-1.0 / theta.rows() as f32);
    let grads = tape.backward(loss);
    (
        loss.scalar_value(),
        grads.get(t).unwrap().clone(),
        grads.get(bv).unwrap().clone(),
    )
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bow_log_likelihood_matches_the_dense_chain_bitwise(
        shape in 0..BOW_SHAPES.len(),
        seed in 0u64..u64::MAX,
        threads in 1usize..=2,
    ) {
        let (b, v, k) = BOW_SHAPES[shape];
        let (theta, beta, x) = bow_operands(b, v, k, seed);
        let csr = Arc::new(Tensor::from_csr(x));
        let dense = Arc::new(csr.to_dense());
        pool::with_threads(threads, || {
            let want = bow_loss_and_grads(&theta, &beta, &dense, false);
            // The chain itself does not care how x is stored.
            let chain_csr = bow_loss_and_grads(&theta, &beta, &csr, false);
            prop_assert_eq!(want.0.to_bits(), chain_csr.0.to_bits());
            for (what, x) in [("csr", &csr), ("dense", &dense)] {
                let got = bow_loss_and_grads(&theta, &beta, x, true);
                prop_assert_eq!(got.0.to_bits(), want.0.to_bits(), "{} x {:?}: value", what, (b, v, k));
                prop_assert!(same_bits(&got.1, &want.1), "{} x {:?}: d theta", what, (b, v, k));
                prop_assert!(same_bits(&got.2, &want.2), "{} x {:?}: d beta", what, (b, v, k));
            }
        });
    }
}

#[test]
fn bow_log_likelihood_covers_every_shape() {
    // Proptest samples shapes at random; run each once with a fixed seed
    // so no shape is ever left out.
    for (idx, &(b, v, k)) in BOW_SHAPES.iter().enumerate() {
        let (theta, beta, x) = bow_operands(b, v, k, idx as u64);
        let csr = Arc::new(Tensor::from_csr(x));
        let want = bow_loss_and_grads(&theta, &beta, &Arc::new(csr.to_dense()), false);
        let got = bow_loss_and_grads(&theta, &beta, &csr, true);
        assert_eq!(got.0.to_bits(), want.0.to_bits(), "{:?}: value", (b, v, k));
        assert!(same_bits(&got.1, &want.1), "{:?}: d theta", (b, v, k));
        assert!(same_bits(&got.2, &want.2), "{:?}: d beta", (b, v, k));
        // Row 2 of θ is all zeros, so its products fall under eps there.
        let r = theta.matmul(&beta);
        assert!(r.row(2).iter().all(|&p| p < 1e-10));
    }
}
