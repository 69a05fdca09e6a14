//! No-tape forward helpers: the eval path.
//!
//! The tape builds training forwards only, so gradients can flow back.
//! Eval needs no gradients, and the tape's node allocation and closure
//! boxing are pure overhead there, so every eval-mode θ — offline
//! evaluation and serving alike (`ct_models::EncoderWeights::infer_theta`)
//! — runs on these functions. They compute the same values as the
//! corresponding tape ops on plain [`Tensor`]s — **bitwise identically**,
//! because they reuse the exact same kernels and scalar expressions
//! (`Tensor::matmul`, the SELU constants, the stabilized row softmax).
//! This module's tests pin each helper against its tape-op chain.
//!
//! All matrix products route through [`crate::sgemm`] and therefore run on
//! the persistent worker pool ([`crate::pool`]); results are bitwise
//! identical for any worker count.

use crate::ops::{SELU_ALPHA, SELU_LAMBDA};
use crate::tensor::Tensor;

/// Fully-connected layer forward `y = x W + b` with `W: (in, out)` and a
/// `(1, out)` bias row broadcast over the batch. Matches
/// `Var::matmul(w).add(b)` bitwise.
pub fn linear(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(x.cols(), w.rows(), "linear: x/W shape mismatch");
    assert_eq!(b.shape(), (1, w.cols()), "linear: bias must be (1, out)");
    let mut y = x.matmul(w);
    add_row_broadcast(&mut y, b);
    y
}

/// Eval-mode 1-D batch normalization using frozen statistics:
/// `y = ((x + (-mean)) * 1/sqrt(var + eps)) * gamma + beta`, every factor a
/// `(1, dim)` row broadcast over the batch. The grouping is that of the
/// tape-op chain `add_const` → `mul_const` → `mul` → `add`, so the float
/// rounding is identical to it.
pub fn batchnorm_eval(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &Tensor,
    running_var: &Tensor,
    eps: f32,
) -> Tensor {
    let dim = x.cols();
    for (name, t) in [
        ("gamma", gamma),
        ("beta", beta),
        ("running_mean", running_mean),
        ("running_var", running_var),
    ] {
        assert_eq!(
            t.shape(),
            (1, dim),
            "batchnorm_eval: {name} must be (1, {dim})"
        );
    }
    let neg_mean = running_mean.map(|v| -v);
    let inv_std = running_var.map(|v| 1.0 / (v + eps).sqrt());
    let mut y = x.clone();
    add_row_broadcast(&mut y, &neg_mean);
    mul_row_broadcast(&mut y, &inv_std);
    mul_row_broadcast(&mut y, gamma);
    add_row_broadcast(&mut y, beta);
    y
}

/// SELU activation on a plain tensor — same constants and branch as the
/// tape op [`crate::tape::Var::selu`].
pub fn selu(x: &Tensor) -> Tensor {
    x.map(|v| {
        if v > 0.0 {
            SELU_LAMBDA * v
        } else {
            SELU_LAMBDA * SELU_ALPHA * (v.exp() - 1.0)
        }
    })
}

/// In-place `y[r][c] += row[0][c]` for every batch row.
fn add_row_broadcast(y: &mut Tensor, row: &Tensor) {
    debug_assert_eq!(row.rows(), 1);
    debug_assert_eq!(row.cols(), y.cols());
    let r0 = row.row(0);
    for r in 0..y.rows() {
        for (v, b) in y.row_mut(r).iter_mut().zip(r0) {
            *v += b;
        }
    }
}

/// In-place `y[r][c] *= row[0][c]` for every batch row.
fn mul_row_broadcast(y: &mut Tensor, row: &Tensor) {
    debug_assert_eq!(row.rows(), 1);
    debug_assert_eq!(row.cols(), y.cols());
    let r0 = row.row(0);
    for r in 0..y.rows() {
        for (v, b) in y.row_mut(r).iter_mut().zip(r0) {
            *v *= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{BatchNorm1d, Linear};
    use crate::params::Params;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_matches_tape_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut params = Params::new();
        let lin = Linear::new(&mut params, "l", 9, 5, &mut rng);
        let x = Tensor::randn(7, 9, 1.3, &mut rng);

        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let tape_out = lin.forward(&tape, &params, xv);

        let notape = linear(&x, params.value(lin.w), params.value(lin.b));
        assert_eq!(*tape_out.value(), notape);
    }

    #[test]
    fn batchnorm_eval_matches_tape_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut params = Params::new();
        let bn = BatchNorm1d::new(&mut params, "bn", 6);
        // Accumulate non-trivial running statistics first.
        for _ in 0..5 {
            let tape = Tape::new();
            let x = tape.constant(Tensor::randn(16, 6, 2.0, &mut rng).map(|v| v + 3.0));
            let _ = bn.forward(&tape, &params, x);
            params.apply_ema(tape.take_ema_updates());
        }
        let x = Tensor::randn(4, 6, 1.0, &mut rng);

        // The eval chain from tape ops: `add_const → mul_const → mul → add`.
        let tape = Tape::new();
        let neg_mean = std::sync::Arc::new(params.value(bn.running_mean).map(|v| -v));
        let inv_std = std::sync::Arc::new(
            params
                .value(bn.running_var)
                .map(|v| 1.0 / (v + bn.eps).sqrt()),
        );
        let tape_out = tape
            .constant(x.clone())
            .add_const(&neg_mean)
            .mul_const(&inv_std)
            .mul(tape.param(&params, bn.gamma))
            .add(tape.param(&params, bn.beta));

        let notape = batchnorm_eval(
            &x,
            params.value(bn.gamma),
            params.value(bn.beta),
            params.value(bn.running_mean),
            params.value(bn.running_var),
            bn.eps,
        );
        assert_eq!(*tape_out.value(), notape);
    }

    #[test]
    fn selu_matches_tape_op_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::randn(5, 8, 2.0, &mut rng);
        let tape = Tape::new();
        let tape_out = tape.constant(x.clone()).selu();
        assert_eq!(*tape_out.value(), selu(&x));
    }
}
