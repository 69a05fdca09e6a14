//! Property-based tests of the tensor/autodiff substrate invariants.

use ct_tensor::{Tape, Tensor};
use proptest::prelude::*;

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
