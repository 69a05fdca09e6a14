//! Neural-network layers built on the autodiff primitives.
//!
//! Layers own [`ParamId`] handles; the actual tensors live in a shared
//! [`Params`] registry so a single optimizer can update a whole model.

use rand::Rng;

use crate::params::{xavier_uniform, ParamId, Params};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Activation functions used by the models in this workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// The paper's encoder activation.
    Selu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Smooth ReLU `ln(1 + e^x)`.
    Softplus,
    /// No-op.
    Identity,
}

impl Activation {
    /// Apply on a tape variable (differentiable path).
    pub fn apply<'t>(self, x: Var<'t>) -> Var<'t> {
        match self {
            Activation::Relu => x.relu(),
            Activation::Selu => x.selu(),
            Activation::Tanh => x.tanh_act(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Softplus => x.softplus(),
            Activation::Identity => x,
        }
    }

    /// Apply on a plain tensor (no tape). Uses the same scalar expressions
    /// as the tape ops, so the result is bitwise identical to
    /// [`Activation::apply`] — the invariant the no-tape serving path
    /// relies on (see [`crate::infer`]).
    pub fn apply_tensor(self, x: &Tensor) -> Tensor {
        match self {
            Activation::Relu => x.map(|v| v.max(0.0)),
            Activation::Selu => crate::infer::selu(x),
            Activation::Tanh => x.map(f32::tanh),
            Activation::Sigmoid => x.map(|v| 1.0 / (1.0 + (-v).exp())),
            Activation::Softplus => x.map(|v| v.max(0.0) + (1.0 + (-v.abs()).exp()).ln()),
            Activation::Identity => x.clone(),
        }
    }
}

/// Fully-connected layer `y = x W + b` with `W: (in, out)`.
pub struct Linear {
    /// Weight matrix handle, shape `(in, out)`.
    pub w: ParamId,
    /// Bias row handle, shape `(1, out)`.
    pub b: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl Linear {
    /// Register a Xavier-initialized layer under `name` in `params`.
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = params.add(format!("{name}.w"), xavier_uniform(in_dim, out_dim, rng));
        let b = params.add(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Differentiable forward pass `x W + b`.
    pub fn forward<'t>(&self, tape: &'t Tape, params: &Params, x: Var<'t>) -> Var<'t> {
        let w = tape.param(params, self.w);
        let b = tape.param(params, self.b);
        x.matmul(w).add(b)
    }
}

/// 1-D batch normalization with running statistics, matching the paper's
/// encoder (`BatchNorm` after the MLP).
///
/// The running mean and variance are frozen [`Params`] entries
/// (`{name}.running_mean`, `{name}.running_var`), so every checkpoint of
/// the registry carries them. A training forward does not mutate them: it
/// records their EMA updates on its tape ([`Tape::record_ema`]), and the
/// training driver applies the recorded updates ([`Params::apply_ema`]) in
/// a fixed order that does not depend on which worker ran which shard.
pub struct BatchNorm1d {
    /// Learnable scale handle, shape `(1, dim)`.
    pub gamma: ParamId,
    /// Learnable shift handle, shape `(1, dim)`.
    pub beta: ParamId,
    /// Running mean handle (frozen), shape `(1, dim)`.
    pub running_mean: ParamId,
    /// Running variance handle (frozen), shape `(1, dim)`.
    pub running_var: ParamId,
    /// Variance floor added before the square root.
    pub eps: f32,
    /// Exponential-moving-average coefficient for the running stats.
    pub momentum: f32,
}

impl BatchNorm1d {
    /// Register a batch-norm layer over `dim` features under `name`.
    pub fn new(params: &mut Params, name: &str, dim: usize) -> Self {
        let gamma = params.add(format!("{name}.gamma"), Tensor::ones(1, dim));
        let beta = params.add(format!("{name}.beta"), Tensor::zeros(1, dim));
        let running_mean = params.add_frozen(format!("{name}.running_mean"), Tensor::zeros(1, dim));
        let running_var = params.add_frozen(format!("{name}.running_var"), Tensor::ones(1, dim));
        Self {
            gamma,
            beta,
            running_mean,
            running_var,
            eps: 1e-5,
            momentum: 0.1,
        }
    }

    /// Training forward: normalizes by the batch's own statistics
    /// (differentiably, so gradients flow through mean and variance) and
    /// records the running-statistics updates on `tape`. Eval mode, over
    /// the running statistics, is [`crate::infer::batchnorm_eval`].
    pub fn forward<'t>(&self, tape: &'t Tape, params: &Params, x: Var<'t>) -> Var<'t> {
        let gamma = tape.param(params, self.gamma);
        let beta = tape.param(params, self.beta);
        let mu = x.mean_axis0();
        let centered = x.sub(mu);
        let var = centered.square().mean_axis0();
        let normed = centered.div(var.add_scalar(self.eps).sqrt_eps(1e-12));
        tape.record_ema(self.running_mean, self.momentum, mu.value());
        tape.record_ema(self.running_var, self.momentum, var.value());
        normed.mul(gamma).add(beta)
    }
}

/// Multi-layer perceptron: `depth` hidden layers with the given activation.
pub struct Mlp {
    /// The hidden layers, input-side first.
    pub layers: Vec<Linear>,
    /// Activation applied after every layer.
    pub activation: Activation,
}

impl Mlp {
    /// Register `depth` hidden layers of width `hidden` under `name`.
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        depth: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(depth >= 1, "MLP depth must be >= 1");
        let mut layers = Vec::with_capacity(depth);
        let mut d = in_dim;
        for i in 0..depth {
            layers.push(Linear::new(params, &format!("{name}.l{i}"), d, hidden, rng));
            d = hidden;
        }
        Self { layers, activation }
    }

    /// Differentiable forward pass through every layer + activation.
    pub fn forward<'t>(&self, tape: &'t Tape, params: &Params, mut x: Var<'t>) -> Var<'t> {
        for layer in &self.layers {
            x = self.activation.apply(layer.forward(tape, params, x));
        }
        x
    }

    /// Width of the final layer (0 for an empty MLP).
    pub fn out_dim(&self) -> usize {
        self.layers.last().map(|l| l.out_dim).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let lin = Linear::new(&mut params, "l", 4, 7, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(3, 4));
        let y = lin.forward(&tape, &params, x);
        assert_eq!(y.shape(), (3, 7));
    }

    #[test]
    fn mlp_learns_xor_ish_regression() {
        // Fit y = x0 * x1 on a tiny grid — checks end-to-end layer training.
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "mlp", 2, 16, 2, Activation::Tanh, &mut rng);
        let head = Linear::new(&mut params, "head", 16, 1, &mut rng);
        let xs: Vec<f32> = vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.2, 0.8];
        let ys: Vec<f32> = xs.chunks(2).map(|p| p[0] * p[1]).collect();
        let x = Tensor::from_vec(xs, 6, 2);
        let y_neg = std::sync::Arc::new(Tensor::col_vector(ys.iter().map(|v| -v).collect()));
        let mut opt = Adam::new(0.01);
        let mut final_loss = f32::INFINITY;
        for _ in 0..300 {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let h = mlp.forward(&tape, &params, xv);
            let pred = head.forward(&tape, &params, h);
            let loss = pred.add_const(&y_neg).square().mean_all();
            final_loss = loss.scalar_value();
            let grads = tape.backward(loss);
            grads.accumulate_into(&mut params);
            opt.step(&mut params);
        }
        assert!(final_loss < 1e-3, "final loss {final_loss}");
    }

    #[test]
    fn batchnorm_normalizes_in_training() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let bn = BatchNorm1d::new(&mut params, "bn", 4);
        let tape = Tape::new();
        let x = tape.constant(Tensor::randn(64, 4, 5.0, &mut rng).map(|v| v + 10.0));
        let y = bn.forward(&tape, &params, x);
        let yv = y.value();
        // Per-column mean ~0, var ~1 after normalization (gamma=1, beta=0).
        for c in 0..4 {
            let col: Vec<f32> = (0..64).map(|r| yv.get(r, c)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 64.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-3, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 0.05, "col {c} var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = Params::new();
        let bn = BatchNorm1d::new(&mut params, "bn", 3);
        // Run several training batches to accumulate running stats.
        for _ in 0..50 {
            let tape = Tape::new();
            let x = tape.constant(Tensor::randn(32, 3, 2.0, &mut rng).map(|v| v + 5.0));
            let _ = bn.forward(&tape, &params, x);
            params.apply_ema(tape.take_ema_updates());
        }
        // Eval on shifted data: output should be approx (x - 5) / 2.
        let y = crate::infer::batchnorm_eval(
            &Tensor::full(1, 3, 5.0),
            params.value(bn.gamma),
            params.value(bn.beta),
            params.value(bn.running_mean),
            params.value(bn.running_var),
            bn.eps,
        );
        for &v in y.data() {
            assert!(v.abs() < 0.3, "eval output {v} not near 0");
        }
    }

    #[test]
    fn batchnorm_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = Params::new();
        let bn = BatchNorm1d::new(&mut params, "bn", 2);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::randn(8, 2, 1.0, &mut rng));
        let y = bn.forward(&tape, &params, x);
        let loss = y.square().sum_all();
        let grads = tape.backward(loss);
        assert!(grads.get(x).is_some());
    }

    #[test]
    fn batchnorm_training_forward_records_instead_of_mutating() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut params = Params::new();
        let bn = BatchNorm1d::new(&mut params, "bn", 2);
        assert!(params.is_frozen(bn.running_mean) && params.is_frozen(bn.running_var));
        assert_eq!(params.name(bn.running_var), "bn.running_var");
        let x = Tensor::randn(8, 2, 1.0, &mut rng);
        let tape = Tape::new();
        let _ = bn.forward(&tape, &params, tape.constant(x.clone()));
        assert_eq!(*params.value(bn.running_mean), Tensor::zeros(1, 2));
        assert_eq!(*params.value(bn.running_var), Tensor::ones(1, 2));
        let updates = tape.take_ema_updates();
        assert_eq!(updates.len(), 2);
        let (mu, var) = (updates[0].batch.clone(), updates[1].batch.clone());
        // Column means of x, recorded from the forward's own values.
        for k in 0..2 {
            let col_mean = (0..8).map(|r| x.get(r, k)).sum::<f32>() / 8.0;
            assert!((mu.get(0, k) - col_mean).abs() < 1e-5);
        }
        params.apply_ema(updates);
        for k in 0..2 {
            let m = bn.momentum;
            assert_eq!(
                params.value(bn.running_mean).get(0, k),
                (1.0 - m) * 0.0 + m * mu.get(0, k)
            );
            assert_eq!(
                params.value(bn.running_var).get(0, k),
                (1.0 - m) * 1.0 + m * var.get(0, k)
            );
        }
    }

    #[test]
    fn activation_identity_is_noop() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(2, 2));
        let y = Activation::Identity.apply(x);
        assert_eq!(*x.value(), *y.value());
    }
}
