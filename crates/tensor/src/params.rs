//! Parameter storage shared across training steps.
//!
//! Layers own [`ParamId`] handles into a [`Params`] registry. Each training
//! step binds parameters onto a fresh [`crate::Tape`] via [`crate::Tape::param`],
//! and the optimizer consumes the accumulated `grad` buffers afterwards.
//!
//! Running statistics (batch-norm means and variances, reward baselines)
//! live here too, as frozen entries: a training forward records their
//! updates on its tape as [`EmaUpdate`]s, and the training driver applies
//! them with [`Params::apply_ema`]. Every checkpoint of the registry
//! therefore carries them.

use std::sync::Arc;

use rand::Rng;

use crate::tensor::Tensor;

/// Handle to one tensor in a [`Params`] registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

struct Entry {
    name: String,
    value: Arc<Tensor>,
    grad: Tensor,
    frozen: bool,
}

/// One exponential-moving-average update of a frozen statistic, recorded
/// by a training forward pass (see [`crate::Tape::record_ema`]) and
/// applied by [`Params::apply_ema`]: `stat ← (1 − momentum)·stat +
/// momentum·batch`, elementwise.
pub struct EmaUpdate {
    /// The statistic to update.
    pub param: ParamId,
    /// Weight of the new batch value.
    pub momentum: f32,
    /// The batch value, shaped like the statistic.
    pub batch: Arc<Tensor>,
}

/// Registry of named, trainable tensors with gradient buffers.
#[derive(Default)]
pub struct Params {
    entries: Vec<Entry>,
}

/// Outcome of a gradient-clipping call (training-telemetry hook).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClipReport {
    /// Global gradient norm before clipping.
    pub pre_norm: f32,
    /// Whether the gradients were actually rescaled.
    pub clipped: bool,
}

impl std::fmt::Debug for Params {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Params");
        for e in &self.entries {
            d.field(&e.name, &e.value.shape());
        }
        d.finish()
    }
}

impl Params {
    /// Empty parameter store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a trainable tensor; returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.entries.push(Entry {
            name: name.into(),
            grad: Tensor::zeros(r, c),
            value: Arc::new(value),
            frozen: false,
        });
        ParamId(self.entries.len() - 1)
    }

    /// Register a frozen tensor (e.g. pretrained word embeddings); it is
    /// bound onto tapes as a constant and never updated.
    pub fn add_frozen(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = self.add(name, value);
        self.entries[id.0].frozen = true;
        id
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registration name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Whether the optimizer should skip this parameter.
    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.entries[id.0].frozen
    }

    /// Shared handle to the current value.
    pub fn value_shared(&self, id: ParamId) -> Arc<Tensor> {
        self.entries[id.0].value.clone()
    }

    /// Borrow the current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable access to the value (copy-on-write if a tape still holds it).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.entries[id.0].value)
    }

    /// Borrow the gradient buffer.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].grad
    }

    /// Mutable access to the gradient buffer.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].grad
    }

    /// Zero every gradient buffer.
    pub fn zero_grad(&mut self) {
        for e in &mut self.entries {
            e.grad.fill(0.0);
        }
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }

    /// Global L2 norm of all (non-frozen) gradients.
    pub fn grad_norm(&self) -> f32 {
        let mut acc = 0.0f64;
        for e in &self.entries {
            if e.frozen {
                continue;
            }
            for &g in e.grad.data() {
                acc += (g as f64) * (g as f64);
            }
        }
        acc.sqrt() as f32
    }

    /// Scale all gradients so their global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        self.clip_grad_norm_report(max_norm).pre_norm
    }

    /// [`Params::clip_grad_norm`] with a full telemetry report: the
    /// pre-clip global norm and whether rescaling actually happened.
    pub fn clip_grad_norm_report(&mut self, max_norm: f32) -> ClipReport {
        let norm = self.grad_norm();
        let clipped = norm > max_norm && norm > 0.0;
        if clipped {
            let s = max_norm / norm;
            for e in &mut self.entries {
                if !e.frozen {
                    e.grad.scale_inplace(s);
                }
            }
        }
        ClipReport {
            pre_norm: norm,
            clipped,
        }
    }

    /// Apply recorded EMA updates in order (see [`EmaUpdate`]).
    pub fn apply_ema(&mut self, updates: impl IntoIterator<Item = EmaUpdate>) {
        for u in updates {
            let m = u.momentum;
            let stat = self.value_mut(u.param);
            assert_eq!(stat.shape(), u.batch.shape(), "apply_ema: shape mismatch");
            for (s, &b) in stat.data_mut().iter_mut().zip(u.batch.data()) {
                *s = (1.0 - m) * *s + m * b;
            }
        }
    }

    /// Total number of trainable scalars.
    pub fn num_trainable(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.frozen)
            .map(|e| e.value.numel())
            .sum()
    }
}

/// Xavier/Glorot uniform initialization for a `(fan_in, fan_out)` matrix.
pub fn xavier_uniform<R: Rng>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(fan_in, fan_out, -limit, limit, rng)
}

/// He/Kaiming normal initialization for a `(fan_in, fan_out)` matrix.
pub fn he_normal<R: Rng>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    Tensor::randn(fan_in, fan_out, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_and_lookup() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::ones(2, 3));
        assert_eq!(p.name(id), "w");
        assert_eq!(p.value(id).shape(), (2, 3));
        assert_eq!(p.grad(id).shape(), (2, 3));
        assert!(!p.is_frozen(id));
        assert_eq!(p.num_trainable(), 6);
    }

    #[test]
    fn frozen_not_counted_trainable() {
        let mut p = Params::new();
        p.add_frozen("emb", Tensor::ones(4, 4));
        p.add("w", Tensor::ones(2, 2));
        assert_eq!(p.num_trainable(), 4);
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::zeros(1, 2));
        p.grad_mut(id).data_mut().copy_from_slice(&[3.0, 4.0]);
        let pre = p.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((p.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_report_flags_activation() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::zeros(1, 2));
        p.grad_mut(id).data_mut().copy_from_slice(&[3.0, 4.0]);
        let r = p.clip_grad_norm_report(10.0);
        assert!(!r.clipped);
        assert!((r.pre_norm - 5.0).abs() < 1e-6);
        let r = p.clip_grad_norm_report(1.0);
        assert!(r.clipped);
        assert!((r.pre_norm - 5.0).abs() < 1e-6);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::zeros(1, 2));
        p.grad_mut(id).data_mut().copy_from_slice(&[1.0, 2.0]);
        p.zero_grad();
        assert_eq!(p.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = xavier_uniform(10, 10, &mut rng);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(t.data().iter().all(|&v| v.abs() <= limit));
    }
}
