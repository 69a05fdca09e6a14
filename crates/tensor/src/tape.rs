//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] is an append-only arena of computation nodes built during one
//! forward pass. Each node stores its value and a backward closure that
//! scatters the incoming output gradient to the node's parents. Because
//! nodes are appended in execution order, iterating ids in reverse is a
//! valid reverse-topological traversal.
//!
//! The intended lifecycle (one per training step) is:
//!
//! ```text
//! let tape = Tape::new();
//! let x = tape.constant(batch);          // data, no gradient
//! let w = tape.param(&params, w_id);     // trainable leaf
//! let loss = /* ops on Vars */;
//! let grads = tape.backward(loss);
//! grads.accumulate_into(&mut params);
//! optimizer.step(&mut params);
//! ```

use std::cell::RefCell;
use std::sync::Arc;

use crate::params::{EmaUpdate, ParamId, Params};
use crate::tensor::Tensor;

/// Backward closure: receives the gradient flowing into this node's output
/// and a sink used to deposit gradients on parent nodes.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &mut GradSink)>;

pub(crate) struct Node {
    pub value: Arc<Tensor>,
    pub requires_grad: bool,
    pub backward: Option<BackwardFn>,
}

/// Arena of autodiff nodes for a single forward/backward pass.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
    /// (node id, param id) pairs for leaves bound to trainable parameters.
    param_nodes: RefCell<Vec<(usize, ParamId)>>,
    /// Running-statistic updates recorded by training forwards, in record
    /// order; drained by [`Tape::take_ema_updates`].
    ema_updates: RefCell<Vec<EmaUpdate>>,
}

/// Handle to a node on a [`Tape`]. Cheap to copy; all ops live on this type
/// (see the `ops` module).
#[derive(Clone, Copy)]
pub struct Var<'t> {
    pub(crate) tape: &'t Tape,
    pub(crate) id: usize,
}

/// Gradient accumulator passed to backward closures.
pub struct GradSink<'a> {
    grads: &'a mut Vec<Option<Tensor>>,
}

impl GradSink<'_> {
    /// Add `g` to the gradient of node `id`.
    pub fn add(&mut self, id: usize, g: Tensor) {
        match &mut self.grads[id] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }
}

/// Result of [`Tape::backward`]: per-node gradients plus the param binding.
pub struct Grads {
    by_id: Vec<Option<Tensor>>,
    param_nodes: Vec<(usize, ParamId)>,
}

impl Grads {
    /// Gradient of a specific var, if it received one.
    pub fn get(&self, var: Var<'_>) -> Option<&Tensor> {
        self.by_id.get(var.id).and_then(|g| g.as_ref())
    }

    /// Add parameter gradients into `params.grad` buffers.
    pub fn accumulate_into(&self, params: &mut Params) {
        for &(node_id, pid) in &self.param_nodes {
            if let Some(g) = &self.by_id[node_id] {
                params.grad_mut(pid).add_assign(g);
            }
        }
    }

    /// Consume the gradients, returning one `(ParamId, Tensor)` per distinct
    /// trainable parameter that received gradient. Duplicate bindings of the
    /// same parameter (a layer bound twice on one tape) are summed in the
    /// binding order, exactly as [`Grads::accumulate_into`] would. All
    /// remaining per-node gradients are returned to the buffer arena.
    ///
    /// This is the shard-side half of data-parallel training: each
    /// micro-batch reduces its tape to this compact list, and the driver
    /// combines the lists in fixed micro-batch order.
    pub fn into_param_grads(mut self) -> Vec<(ParamId, Tensor)> {
        let mut out: Vec<(ParamId, Tensor)> = Vec::with_capacity(self.param_nodes.len());
        for &(node_id, pid) in &self.param_nodes {
            let Some(g) = self.by_id[node_id].take() else {
                continue;
            };
            match out.iter_mut().find(|(p, _)| *p == pid) {
                Some((_, acc)) => {
                    acc.add_assign(&g);
                    crate::arena::put(g.into_vec());
                }
                None => out.push((pid, g)),
            }
        }
        for g in self.by_id.into_iter().flatten() {
            crate::arena::put(g.into_vec());
        }
        out
    }

    /// Return every per-node gradient buffer to the arena. Call after
    /// [`Grads::accumulate_into`] when the gradients are no longer needed.
    pub fn recycle(self) {
        for g in self.by_id.into_iter().flatten() {
            crate::arena::put(g.into_vec());
        }
    }
}

impl Tape {
    /// Fresh, empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(
        &self,
        value: Tensor,
        requires_grad: bool,
        backward: Option<BackwardFn>,
    ) -> Var<'_> {
        self.push_shared(Arc::new(value), requires_grad, backward)
    }

    /// Record a node whose value is already shared — ops that cache their
    /// output for the backward pass use this to avoid a deep copy.
    pub(crate) fn push_shared(
        &self,
        value: Arc<Tensor>,
        requires_grad: bool,
        backward: Option<BackwardFn>,
    ) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node {
            value,
            requires_grad,
            backward,
        });
        Var { tape: self, id }
    }

    /// Record a constant (no gradient will flow into it).
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.push(value, false, None)
    }

    /// Clear the tape for reuse, returning every op-output buffer that is
    /// no longer referenced to the thread-local arena.
    ///
    /// Nodes are popped in reverse (child-first) order and each node's
    /// backward closure is dropped *before* its value is reclaimed: the
    /// closures capture `Arc` handles to their parents' values, so by the
    /// time a node is popped every child closure referencing it is gone
    /// and `Arc::try_unwrap` succeeds. Values still shared outside the tape
    /// (parameter tensors, [`Tape::constant_shared`] inputs) keep extra
    /// references and are left untouched.
    pub fn reset(&self) {
        let mut nodes = self.nodes.borrow_mut();
        while let Some(mut node) = nodes.pop() {
            node.backward = None;
            if let Ok(t) = Arc::try_unwrap(node.value) {
                crate::arena::put(t.into_vec());
            }
        }
        self.param_nodes.borrow_mut().clear();
        self.ema_updates.borrow_mut().clear();
    }

    /// Record an EMA update of the frozen statistic `param` towards
    /// `batch` (see [`EmaUpdate`]). The forward pass mutates nothing; the
    /// caller applies the recorded updates with [`Params::apply_ema`].
    pub fn record_ema(&self, param: ParamId, momentum: f32, batch: Arc<Tensor>) {
        self.ema_updates.borrow_mut().push(EmaUpdate {
            param,
            momentum,
            batch,
        });
    }

    /// Drain the EMA updates recorded so far, in record order.
    pub fn take_ema_updates(&self) -> Vec<EmaUpdate> {
        std::mem::take(&mut *self.ema_updates.borrow_mut())
    }

    /// Record a constant from a shared tensor without copying the data.
    pub fn constant_shared(&self, value: Arc<Tensor>) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node {
            value,
            requires_grad: false,
            backward: None,
        });
        Var { tape: self, id }
    }

    /// Record a gradient-requiring leaf not tied to a parameter (tests,
    /// finite-difference checks).
    pub fn leaf(&self, value: Tensor) -> Var<'_> {
        self.push(value, true, None)
    }

    /// Bind a trainable parameter onto this tape. The parameter's tensor is
    /// shared (no copy); gradients route back to it via
    /// [`Grads::accumulate_into`]. Frozen parameters are bound as constants.
    pub fn param(&self, params: &Params, pid: ParamId) -> Var<'_> {
        let value = params.value_shared(pid);
        if params.is_frozen(pid) {
            return self.constant_shared(value);
        }
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node {
            value,
            requires_grad: true,
            backward: None,
        });
        drop(nodes);
        self.param_nodes.borrow_mut().push((id, pid));
        Var { tape: self, id }
    }

    /// Run reverse-mode accumulation from `loss` (must be a `1x1` scalar).
    pub fn backward(&self, loss: Var<'_>) -> Grads {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[loss.id].value.shape(),
            (1, 1),
            "backward() requires a scalar loss"
        );
        let mut by_id: Vec<Option<Tensor>> = vec![None; nodes.len()];
        by_id[loss.id] = Some(Tensor::scalar(1.0));
        for id in (0..=loss.id).rev() {
            let Some(grad) = by_id[id].take() else {
                continue;
            };
            if let Some(bw) = &nodes[id].backward {
                let mut sink = GradSink { grads: &mut by_id };
                bw(&grad, &mut sink);
            }
            by_id[id] = Some(grad);
        }
        Grads {
            by_id,
            param_nodes: self.param_nodes.borrow().clone(),
        }
    }
}

impl<'t> Var<'t> {
    /// Shared handle to this node's value.
    pub fn value(&self) -> Arc<Tensor> {
        self.tape.nodes.borrow()[self.id].value.clone()
    }

    /// Shape of this node's value.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.nodes.borrow()[self.id].value.shape()
    }

    /// Whether gradient will flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.tape.nodes.borrow()[self.id].requires_grad
    }

    /// Scalar value of a `1x1` var.
    pub fn scalar_value(&self) -> f32 {
        let v = self.value();
        assert_eq!(v.shape(), (1, 1), "scalar_value on non-scalar var");
        v.data()[0]
    }

    pub(crate) fn tape(&self) -> &'t Tape {
        self.tape
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_has_no_grad() {
        let tape = Tape::new();
        let c = tape.constant(Tensor::scalar(3.0));
        assert!(!c.requires_grad());
        assert_eq!(c.scalar_value(), 3.0);
    }

    #[test]
    fn leaf_receives_identity_grad() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(2.0));
        let grads = tape.backward(x);
        assert_eq!(grads.get(x).unwrap().data(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(2, 2));
        let _ = tape.backward(x);
    }
}
