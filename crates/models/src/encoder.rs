//! The shared VAE encoder `q(θ | w)` of §III-B:
//! `π = MLP(w)`, `μ = l1(π)`, `log σ² = l2(π)`,
//! `θ = softmax(μ + σ ⊙ ε)`, with SeLU activations, dropout and batch norm
//! as in the paper's experimental settings.
//!
//! The two halves live apart. [`Encoder`] builds the training forward on a
//! tape: dropout, batch norm over the batch, a reparameterized sample.
//! [`EncoderWeights`] is the only eval path: the posterior mode
//! `θ = softmax(μ)` with batch norm over the running statistics, computed
//! without a tape. Every offline θ (`TopicModel::theta`, `contratopic
//! eval`) and every served θ goes through it.

use ct_tensor::{Activation, BatchNorm1d, Linear, Mlp, Params, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::TrainConfig;

/// Amortized inference network producing a logistic-normal posterior.
/// Its tape forwards are training forwards; eval-mode θ comes from
/// [`Encoder::export_weights`] and [`EncoderWeights::infer_theta`].
pub struct Encoder {
    mlp: Mlp,
    bn: BatchNorm1d,
    mu: Linear,
    logvar: Linear,
    dropout: f32,
}

impl Encoder {
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        vocab_size: usize,
        config: &TrainConfig,
        rng: &mut R,
    ) -> Self {
        let mlp = Mlp::new(
            params,
            &format!("{name}.mlp"),
            vocab_size,
            config.hidden,
            config.encoder_depth,
            Activation::Selu,
            rng,
        );
        let bn = BatchNorm1d::new(params, &format!("{name}.bn"), config.hidden);
        let mu = Linear::new(
            params,
            &format!("{name}.mu"),
            config.hidden,
            config.num_topics,
            rng,
        );
        let logvar = Linear::new(
            params,
            &format!("{name}.logvar"),
            config.hidden,
            config.num_topics,
            rng,
        );
        Self {
            mlp,
            bn,
            mu,
            logvar,
            dropout: config.dropout,
        }
    }

    /// Training-mode posterior parameters `(mu, logvar)` for a
    /// (normalized) BoW batch: dropout, then batch norm over the batch's
    /// own statistics, whose running-statistics updates land on `tape`.
    pub fn posterior<'t>(
        &self,
        tape: &'t Tape,
        params: &Params,
        x: Var<'t>,
        rng: &mut StdRng,
    ) -> (Var<'t>, Var<'t>) {
        let pi = self.mlp.forward(tape, params, x);
        let pi = pi.dropout(self.dropout, rng);
        let pi = self.bn.forward(tape, params, pi);
        let mu = self.mu.forward(tape, params, pi);
        // Clamp the log-variance to keep exp() sane early in training.
        let logvar = self.logvar.forward(tape, params, pi).clamp_min(-8.0);
        (mu, logvar)
    }

    /// Reparameterized sample `theta = softmax(mu + sigma * eps)`. The
    /// eval-mode posterior mode `softmax(mu)` is
    /// [`EncoderWeights::infer_theta`].
    fn theta<'t>(&self, mu: Var<'t>, logvar: Var<'t>, rng: &mut StdRng) -> Var<'t> {
        let (r, c) = mu.shape();
        let eps = std::sync::Arc::new(Tensor::randn(r, c, 1.0, rng));
        let sigma = logvar.scale(0.5).exp();
        mu.add(sigma.mul_const(&eps)).softmax_rows(1.0)
    }

    /// Analytic KL divergence to the standard-normal prior, averaged over
    /// the batch: `-0.5 * mean_d Σ_k (1 + logvar - mu^2 - e^logvar)`.
    pub fn kl<'t>(&self, mu: Var<'t>, logvar: Var<'t>) -> Var<'t> {
        let n = mu.shape().0 as f32;
        logvar
            .add_scalar(1.0)
            .sub(mu.square())
            .sub(logvar.exp())
            .sum_all()
            .scale(-0.5 / n)
    }

    /// Full training-mode encoding: `(theta, kl)` for a batch.
    pub fn encode<'t>(
        &self,
        tape: &'t Tape,
        params: &Params,
        x: Var<'t>,
        rng: &mut StdRng,
    ) -> (Var<'t>, Var<'t>) {
        let (mu, logvar) = self.posterior(tape, params, x, rng);
        let theta = self.theta(mu, logvar, rng);
        let kl = self.kl(mu, logvar);
        (theta, kl)
    }

    /// Export the encoder into an immutable, thread-safe weight snapshot
    /// for serving (see [`EncoderWeights`]). The returned value owns plain
    /// tensors only — no `RefCell`, no parameter registry — so it is
    /// `Send + Sync` and can back concurrent inference.
    pub fn export_weights(&self, params: &Params) -> EncoderWeights {
        EncoderWeights {
            layers: self
                .mlp
                .layers
                .iter()
                .map(|l| (params.value(l.w).clone(), params.value(l.b).clone()))
                .collect(),
            activation: self.mlp.activation,
            bn_gamma: params.value(self.bn.gamma).clone(),
            bn_beta: params.value(self.bn.beta).clone(),
            bn_mean: params.value(self.bn.running_mean).clone(),
            bn_var: params.value(self.bn.running_var).clone(),
            bn_eps: self.bn.eps,
            mu_w: params.value(self.mu.w).clone(),
            mu_b: params.value(self.mu.b).clone(),
            num_topics: self.mu.out_dim,
            vocab_size: self.mlp.layers.first().map(|l| l.in_dim).unwrap_or(0),
        }
    }
}

/// Immutable snapshot of a trained encoder's weights, detached from the
/// [`Params`] registry: the MLP layers, eval-mode batch-norm statistics and
/// the `mu` head, all as owned tensors.
///
/// [`EncoderWeights::infer_theta`] runs the eval-mode forward pass without
/// a tape via [`ct_tensor::infer`]. It is the one eval path: offline θ
/// ([`crate::TopicModel::theta`] through
/// [`crate::common::infer_theta_blocked`]) and served θ both call it, so
/// they agree by construction. Its values equal the same forward built
/// from tape ops bitwise (pinned by this module's tests). Because the
/// snapshot is `Send + Sync`, a server can share one instance across
/// worker threads.
#[derive(Clone, Debug)]
pub struct EncoderWeights {
    layers: Vec<(Tensor, Tensor)>,
    activation: Activation,
    bn_gamma: Tensor,
    bn_beta: Tensor,
    bn_mean: Tensor,
    bn_var: Tensor,
    bn_eps: f32,
    mu_w: Tensor,
    mu_b: Tensor,
    num_topics: usize,
    vocab_size: usize,
}

impl EncoderWeights {
    /// Eval-mode amortized θ for an `(n, V)` batch of raw counts, dense or
    /// CSR:
    /// L1-normalize rows, MLP, batch-norm (running stats), `mu` head,
    /// row softmax. No tape, no RNG, no dropout — deterministic.
    pub fn infer_theta(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.cols(),
            self.vocab_size,
            "infer_theta: batch vocabulary ({}) != encoder vocabulary ({})",
            x.cols(),
            self.vocab_size
        );
        let mut h = x.clone();
        h.normalize_rows_l1();
        for (w, b) in &self.layers {
            h = self
                .activation
                .apply_tensor(&ct_tensor::infer::linear(&h, w, b));
        }
        let h = ct_tensor::infer::batchnorm_eval(
            &h,
            &self.bn_gamma,
            &self.bn_beta,
            &self.bn_mean,
            &self.bn_var,
            self.bn_eps,
        );
        let mu = ct_tensor::infer::linear(&h, &self.mu_w, &self.mu_b);
        mu.softmax_rows(1.0)
    }

    /// Number of topics `K` (θ columns).
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Vocabulary size `V` the encoder was trained on (input columns).
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_tensor::Params;
    use rand::SeedableRng;

    fn setup() -> (Params, Encoder, TrainConfig) {
        let config = TrainConfig::tiny();
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let enc = Encoder::new(&mut params, "enc", 12, &config, &mut rng);
        (params, enc, config)
    }

    #[test]
    fn theta_rows_on_simplex() {
        let (params, enc, _) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_uniform(5, 12, 0.0, 3.0, &mut rng);
        let theta = enc.export_weights(&params).infer_theta(&x);
        assert_eq!(theta.shape(), (5, 8));
        for r in 0..5 {
            let s: f32 = theta.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
            assert!(theta.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn kl_zero_at_standard_normal() {
        let (_, enc, _) = setup();
        let tape = Tape::new();
        let mu = tape.constant(Tensor::zeros(4, 8));
        let logvar = tape.constant(Tensor::zeros(4, 8));
        let kl = enc.kl(mu, logvar);
        assert!(kl.scalar_value().abs() < 1e-6);
    }

    #[test]
    fn kl_positive_away_from_prior() {
        let (_, enc, _) = setup();
        let tape = Tape::new();
        let mu = tape.constant(Tensor::full(4, 8, 2.0));
        let logvar = tape.constant(Tensor::full(4, 8, 1.0));
        assert!(enc.kl(mu, logvar).scalar_value() > 1.0);
    }

    #[test]
    fn gradients_reach_all_encoder_params() {
        let (mut params, enc, _) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform(6, 12, 0.0, 1.0, &mut rng));
        let (theta, kl) = enc.encode(&tape, &params, x, &mut rng);
        let loss = theta.square().sum_all().add(kl);
        tape.backward(loss).accumulate_into(&mut params);
        let mut nonzero = 0;
        for id in params.ids().collect::<Vec<_>>() {
            if params.grad(id).norm() > 0.0 {
                nonzero += 1;
            }
        }
        // Every layer (mlp x depth, bn, mu, logvar) should receive gradient.
        assert!(nonzero >= 8, "only {nonzero} params got gradient");
    }

    #[test]
    fn exported_weights_match_tape_inference_bitwise() {
        let (mut params, enc, _) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        // Move the running statistics off their initial values first.
        for _ in 0..3 {
            let tape = Tape::new();
            let x = tape.constant(Tensor::rand_uniform(16, 12, 0.0, 4.0, &mut rng));
            let _ = enc.encode(&tape, &params, x, &mut rng);
            params.apply_ema(tape.take_ema_updates());
        }
        let x = Tensor::rand_uniform(7, 12, 0.0, 4.0, &mut rng);

        // The eval-mode forward from tape ops: MLP, batch norm over the
        // running statistics (`add_const → mul_const → mul → add`), the
        // `mu` head and the row softmax.
        let tape = Tape::new();
        let mut xn = x.clone();
        xn.normalize_rows_l1();
        let pi = enc.mlp.forward(&tape, &params, tape.constant(xn));
        let neg_mean = std::sync::Arc::new(params.value(enc.bn.running_mean).map(|v| -v));
        let inv_std = std::sync::Arc::new(
            params
                .value(enc.bn.running_var)
                .map(|v| 1.0 / (v + enc.bn.eps).sqrt()),
        );
        let pi = pi
            .add_const(&neg_mean)
            .mul_const(&inv_std)
            .mul(tape.param(&params, enc.bn.gamma))
            .add(tape.param(&params, enc.bn.beta));
        let tape_theta = enc.mu.forward(&tape, &params, pi).softmax_rows(1.0);

        let snapshot = enc.export_weights(&params);
        assert_eq!(snapshot.num_topics(), 8);
        assert_eq!(snapshot.vocab_size(), 12);
        assert_eq!(
            *tape_theta.value(),
            snapshot.infer_theta(&x),
            "no-tape θ must be bitwise equal"
        );
    }
}
