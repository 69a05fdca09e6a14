//! Differentiable operations on [`Var`] handles.
//!
//! Every op follows the same pattern: compute the output tensor eagerly,
//! capture the `Arc` values needed for the backward pass, and push a node
//! whose backward closure scatters gradients to parents — skipping any
//! parent that does not require grad (this matters: the NPMI similarity
//! matrix is a `V x V` constant and must never receive a gradient buffer).
//!
//! Broadcasting: binary ops accept operands whose shapes are equal, or where
//! one side is a row vector `(1, m)`, a column vector `(n, 1)`, or a scalar
//! `(1, 1)` relative to the other. Gradients are summed over broadcast axes.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rand::Rng;

use crate::csr::CsrMatrix;
use crate::sgemm::{sddmm_csr, sgemm_csr_nt, sgemm_csr_t_dense, sgemm_nn_packed, PackedB};
use crate::tape::{GradSink, Var};
use crate::tensor::{count_csr_matmul, softmax_row_inplace, sum_at_nonzeros, Tensor};

/// SELU activation constants (Klambauer et al. 2017), used by the paper's
/// encoder MLP.
pub const SELU_LAMBDA: f32 = 1.050_701;
/// SELU negative-branch scale; see [`SELU_LAMBDA`].
pub const SELU_ALPHA: f32 = 1.673_263_2;

// ---------------------------------------------------------------------------
// Broadcast helpers (tensor level)
// ---------------------------------------------------------------------------

fn broadcast_shape(a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
    let rows = if a.0 == b.0 {
        a.0
    } else if a.0 == 1 {
        b.0
    } else if b.0 == 1 {
        a.0
    } else {
        panic!("incompatible broadcast rows: {a:?} vs {b:?}")
    };
    let cols = if a.1 == b.1 {
        a.1
    } else if a.1 == 1 {
        b.1
    } else if b.1 == 1 {
        a.1
    } else {
        panic!("incompatible broadcast cols: {a:?} vs {b:?}")
    };
    (rows, cols)
}

/// Apply `f` elementwise over the broadcast of `a` and `b`.
pub(crate) fn broadcast_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let (rows, cols) = broadcast_shape(a.shape(), b.shape());
    if a.shape() == b.shape() {
        return a.zip(b, f);
    }
    let mut out = Tensor::zeros(rows, cols);
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    for r in 0..rows {
        let a_row = a.row(if ar == 1 { 0 } else { r });
        let b_row = b.row(if br == 1 { 0 } else { r });
        let o_row = out.row_mut(r);
        for c in 0..cols {
            let av = a_row[if ac == 1 { 0 } else { c }];
            let bv = b_row[if bc == 1 { 0 } else { c }];
            o_row[c] = f(av, bv);
        }
    }
    out
}

/// Sum `grad` over whichever axes were broadcast to reach `shape`.
pub(crate) fn reduce_to_shape(grad: &Tensor, shape: (usize, usize)) -> Tensor {
    if grad.shape() == shape {
        return grad.clone();
    }
    let (gr, _gc) = grad.shape();
    let (tr, tc) = shape;
    let mut out = Tensor::zeros(tr, tc);
    for r in 0..gr {
        let g_row = grad.row(r);
        let o_r = if tr == 1 { 0 } else { r };
        let o_row = out.row_mut(o_r);
        if tc == 1 {
            o_row[0] += g_row.iter().sum::<f32>();
        } else {
            for (o, &g) in o_row.iter_mut().zip(g_row) {
                *o += g;
            }
        }
    }
    out
}

/// `dense ⊙ sparse` for a CSR-backed `sparse` of the same shape: only the
/// nonzero positions are touched, everything else stays an exact `+0.0`.
fn mul_dense_csr(dense: &Tensor, sparse: &Tensor) -> Tensor {
    debug_assert_eq!(dense.shape(), sparse.shape());
    let m = sparse.csr().expect("mul_dense_csr requires a CSR operand");
    let (rows, cols) = dense.shape();
    let mut out = Tensor::zeros(rows, cols);
    let src = dense.data();
    let dst = out.data_mut();
    for r in 0..rows {
        let (cidx, vals) = m.row(r);
        let base = r * cols;
        for (&cc, &v) in cidx.iter().zip(vals) {
            let i = base + cc as usize;
            dst[i] = src[i] * v;
        }
    }
    out
}

fn sum_axis0_t(t: &Tensor) -> Tensor {
    reduce_to_shape(t, (1, t.cols()))
}

fn sum_axis1_t(t: &Tensor) -> Tensor {
    reduce_to_shape(t, (t.rows(), 1))
}

// ---------------------------------------------------------------------------
// Op implementations
// ---------------------------------------------------------------------------

impl<'t> Var<'t> {
    fn unary(self, out: Tensor, bw: impl Fn(&Tensor, &mut GradSink, usize) + 'static) -> Var<'t> {
        self.unary_shared(Arc::new(out), bw)
    }

    /// Like [`Var::unary`], but the output is already behind an `Arc` — ops
    /// whose backward closure reuses the forward activation share it with
    /// the tape node instead of storing a deep copy.
    fn unary_shared(
        self,
        out: Arc<Tensor>,
        bw: impl Fn(&Tensor, &mut GradSink, usize) + 'static,
    ) -> Var<'t> {
        let req = self.requires_grad();
        let id = self.id;
        let backward =
            req.then(|| Box::new(move |g: &Tensor, sink: &mut GradSink| bw(g, sink, id)) as _);
        self.tape().push_shared(out, req, backward)
    }

    /// Elementwise/broadcast addition.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let out = broadcast_zip(&av, &bv, |a, b| a + b);
        let (a_req, b_req) = (self.requires_grad(), other.requires_grad());
        let (a_id, b_id) = (self.id, other.id);
        let (a_shape, b_shape) = (av.shape(), bv.shape());
        let req = a_req || b_req;
        let backward = req.then(|| {
            Box::new(move |g: &Tensor, sink: &mut GradSink| {
                if a_req {
                    sink.add(a_id, reduce_to_shape(g, a_shape));
                }
                if b_req {
                    sink.add(b_id, reduce_to_shape(g, b_shape));
                }
            }) as _
        });
        self.tape().push(out, req, backward)
    }

    /// Elementwise/broadcast subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        self.add(other.scale(-1.0))
    }

    /// Elementwise/broadcast multiplication.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let out = broadcast_zip(&av, &bv, |a, b| a * b);
        let (a_req, b_req) = (self.requires_grad(), other.requires_grad());
        let (a_id, b_id) = (self.id, other.id);
        let (a_shape, b_shape) = (av.shape(), bv.shape());
        let req = a_req || b_req;
        let backward = req.then(|| {
            Box::new(move |g: &Tensor, sink: &mut GradSink| {
                if a_req {
                    let gb = broadcast_zip(g, &bv, |g, b| g * b);
                    sink.add(a_id, reduce_to_shape(&gb, a_shape));
                }
                if b_req {
                    let ga = broadcast_zip(g, &av, |g, a| g * a);
                    sink.add(b_id, reduce_to_shape(&ga, b_shape));
                }
            }) as _
        });
        self.tape().push(out, req, backward)
    }

    /// Elementwise/broadcast division `self / other`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let out = broadcast_zip(&av, &bv, |a, b| a / b);
        let (a_req, b_req) = (self.requires_grad(), other.requires_grad());
        let (a_id, b_id) = (self.id, other.id);
        let (a_shape, b_shape) = (av.shape(), bv.shape());
        let req = a_req || b_req;
        let backward = req.then(|| {
            Box::new(move |g: &Tensor, sink: &mut GradSink| {
                if a_req {
                    let gb = broadcast_zip(g, &bv, |g, b| g / b);
                    sink.add(a_id, reduce_to_shape(&gb, a_shape));
                }
                if b_req {
                    let num = broadcast_zip(g, &av, |g, a| g * a);
                    let gb = broadcast_zip(&num, &bv, |n, b| -n / (b * b));
                    sink.add(b_id, reduce_to_shape(&gb, b_shape));
                }
            }) as _
        });
        self.tape().push(out, req, backward)
    }

    /// Multiply all elements by a compile-time-known scalar.
    pub fn scale(self, alpha: f32) -> Var<'t> {
        let out = self.value().map(|x| x * alpha);
        self.unary(out, move |g, sink, id| {
            sink.add(id, g.map(|x| x * alpha));
        })
    }

    /// Add a scalar to all elements.
    pub fn add_scalar(self, c: f32) -> Var<'t> {
        let out = self.value().map(|x| x + c);
        self.unary(out, move |g, sink, id| sink.add(id, g.clone()))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Var<'t> {
        self.scale(-1.0)
    }

    /// Matrix product `self @ other`.
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let out = av.matmul(&bv);
        let (a_req, b_req) = (self.requires_grad(), other.requires_grad());
        let (a_id, b_id) = (self.id, other.id);
        let req = a_req || b_req;
        let backward = req.then(|| {
            Box::new(move |g: &Tensor, sink: &mut GradSink| {
                if a_req {
                    sink.add(a_id, g.matmul_nt(&bv));
                }
                if b_req {
                    sink.add(b_id, av.matmul_tn(g));
                }
            }) as _
        });
        self.tape().push(out, req, backward)
    }

    /// Matrix product `self @ other.T`.
    pub fn matmul_nt(self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let out = av.matmul_nt(&bv);
        let (a_req, b_req) = (self.requires_grad(), other.requires_grad());
        let (a_id, b_id) = (self.id, other.id);
        let req = a_req || b_req;
        let backward = req.then(|| {
            Box::new(move |g: &Tensor, sink: &mut GradSink| {
                if a_req {
                    // dA (m,k) = G (m,n) · B (n,k)
                    sink.add(a_id, g.matmul(&bv));
                }
                if b_req {
                    // dB (n,k) = Gᵀ (n,m) · A (m,k)
                    sink.add(b_id, g.matmul_tn(&av));
                }
            }) as _
        });
        self.tape().push(out, req, backward)
    }

    /// Matrix product `self.T @ other`.
    pub fn matmul_tn(self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let out = av.matmul_tn(&bv);
        let (a_req, b_req) = (self.requires_grad(), other.requires_grad());
        let (a_id, b_id) = (self.id, other.id);
        let req = a_req || b_req;
        let backward = req.then(|| {
            Box::new(move |g: &Tensor, sink: &mut GradSink| {
                if a_req {
                    // A is (k,m); dA = B (k,n) · Gᵀ (n,m)
                    sink.add(a_id, bv.matmul_nt(g));
                }
                if b_req {
                    // dB (k,n) = A (k,m) · G (m,n)
                    sink.add(b_id, av.matmul(g));
                }
            }) as _
        });
        self.tape().push(out, req, backward)
    }

    /// Materialized transpose.
    pub fn transpose(self) -> Var<'t> {
        let out = self.value().transposed();
        self.unary(out, |g, sink, id| sink.add(id, g.transposed()))
    }

    /// Elementwise exponential.
    pub fn exp(self) -> Var<'t> {
        let out = Arc::new(self.value().map(f32::exp));
        let y = out.clone();
        self.unary_shared(out, move |g, sink, id| {
            sink.add(id, g.zip(&y, |g, y| g * y));
        })
    }

    /// Elementwise natural log with the input clamped at `eps` for safety.
    pub fn ln_clamped(self, eps: f32) -> Var<'t> {
        let x = self.value();
        let out = x.map(|v| v.max(eps).ln());
        self.unary(out, move |g, sink, id| {
            sink.add(id, g.zip(&x, move |g, x| g / x.max(eps)));
        })
    }

    /// Elementwise square.
    pub fn square(self) -> Var<'t> {
        let x = self.value();
        let out = x.map(|v| v * v);
        self.unary(out, move |g, sink, id| {
            sink.add(id, g.zip(&x, |g, x| 2.0 * g * x));
        })
    }

    /// Elementwise square root of `max(x, 0)`, with gradient clamped near 0.
    pub fn sqrt_eps(self, eps: f32) -> Var<'t> {
        let out = Arc::new(self.value().map(|v| v.max(0.0).sqrt()));
        let y = out.clone();
        self.unary_shared(out, move |g, sink, id| {
            sink.add(id, g.zip(&y, move |g, y| 0.5 * g / (y + eps)));
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(self) -> Var<'t> {
        let out = Arc::new(self.value().map(|v| 1.0 / (1.0 + (-v).exp())));
        let y = out.clone();
        self.unary_shared(out, move |g, sink, id| {
            sink.add(id, g.zip(&y, |g, y| g * y * (1.0 - y)));
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh_act(self) -> Var<'t> {
        let out = Arc::new(self.value().map(f32::tanh));
        let y = out.clone();
        self.unary_shared(out, move |g, sink, id| {
            sink.add(id, g.zip(&y, |g, y| g * (1.0 - y * y)));
        })
    }

    /// Rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        let x = self.value();
        let out = x.map(|v| v.max(0.0));
        self.unary(out, move |g, sink, id| {
            sink.add(id, g.zip(&x, |g, x| if x > 0.0 { g } else { 0.0 }));
        })
    }

    /// Scaled exponential linear unit — the paper's encoder activation.
    pub fn selu(self) -> Var<'t> {
        let x = self.value();
        let out = Arc::new(x.map(|v| {
            if v > 0.0 {
                SELU_LAMBDA * v
            } else {
                SELU_LAMBDA * SELU_ALPHA * (v.exp() - 1.0)
            }
        }));
        let y = out.clone();
        // Backward from the cached activation: for x <= 0,
        // y = λα(e^x − 1), so λα e^x = y + λα — no second exp.
        self.unary_shared(out, move |g, sink, id| {
            sink.add(
                id,
                g.zip(&y, |g, y| {
                    if y > 0.0 {
                        g * SELU_LAMBDA
                    } else {
                        g * (y + SELU_LAMBDA * SELU_ALPHA)
                    }
                }),
            );
        })
    }

    /// Numerically-stable softplus `ln(1 + e^x)`.
    pub fn softplus(self) -> Var<'t> {
        let x = self.value();
        // Cache the sigmoid (the exact backward factor) alongside the
        // forward value instead of re-running exp in the backward pass.
        let sig = x.map(|v| 1.0 / (1.0 + (-v).exp()));
        let out = x.map(|v| v.max(0.0) + (1.0 + (-v.abs()).exp()).ln());
        self.unary(out, move |g, sink, id| {
            sink.add(id, g.zip(&sig, |g, s| g * s));
        })
    }

    /// Clamp below at `c` (gradient passes only where `x > c`).
    pub fn clamp_min(self, c: f32) -> Var<'t> {
        let x = self.value();
        let out = x.map(|v| v.max(c));
        self.unary(out, move |g, sink, id| {
            sink.add(id, g.zip(&x, move |g, x| if x > c { g } else { 0.0 }));
        })
    }

    /// Row-wise softmax with temperature.
    pub fn softmax_rows(self, temperature: f32) -> Var<'t> {
        let out = Arc::new(self.value().softmax_rows(temperature));
        let y = out.clone();
        self.unary_shared(out, move |g, sink, id| {
            // dx = (y ⊙ (g - rowsum(g ⊙ y))) / T
            let gy = g.zip(&y, |g, y| g * y);
            let row_dot = sum_axis1_t(&gy);
            let mut dx = Tensor::zeros(g.rows(), g.cols());
            let inv_t = 1.0 / temperature;
            for r in 0..g.rows() {
                let rd = row_dot.get(r, 0);
                let (g_row, y_row, d_row) = (g.row(r), y.row(r), dx.row_mut(r));
                for c in 0..d_row.len() {
                    d_row[c] = y_row[c] * (g_row[c] - rd) * inv_t;
                }
            }
            sink.add(id, dx);
        })
    }

    /// Row-wise log-softmax with temperature.
    pub fn log_softmax_rows(self, temperature: f32) -> Var<'t> {
        let x = self.value();
        let soft = Arc::new(x.softmax_rows(temperature));
        let out = soft.map(|p| p.max(1e-30).ln());
        let s = soft.clone();
        self.unary(out, move |g, sink, id| {
            // dx = (g - softmax(x/T) * rowsum(g)) / T
            let row_sum = sum_axis1_t(g);
            let mut dx = Tensor::zeros(g.rows(), g.cols());
            let inv_t = 1.0 / temperature;
            for r in 0..g.rows() {
                let rs = row_sum.get(r, 0);
                let (g_row, s_row, d_row) = (g.row(r), s.row(r), dx.row_mut(r));
                for c in 0..d_row.len() {
                    d_row[c] = (g_row[c] - s_row[c] * rs) * inv_t;
                }
            }
            sink.add(id, dx);
        })
    }

    /// Row-wise log-sum-exp, producing an `(n, 1)` column.
    pub fn logsumexp_rows(self) -> Var<'t> {
        let x = self.value();
        let mut out = Tensor::zeros(x.rows(), 1);
        for r in 0..x.rows() {
            let row = x.row(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if m == f32::NEG_INFINITY {
                out.set(r, 0, f32::NEG_INFINITY);
                continue;
            }
            let s: f32 = row.iter().map(|&v| (v - m).exp()).sum();
            out.set(r, 0, m + s.ln());
        }
        self.unary(out, move |g, sink, id| {
            // dx_ij = g_i * softmax(x_i)_j
            let soft = x.softmax_rows(1.0);
            let mut dx = Tensor::zeros(x.rows(), x.cols());
            for r in 0..x.rows() {
                let gv = g.get(r, 0);
                let (s_row, d_row) = (soft.row(r), dx.row_mut(r));
                for c in 0..d_row.len() {
                    d_row[c] = gv * s_row[c];
                }
            }
            sink.add(id, dx);
        })
    }

    /// Sum of all elements, producing a `1x1` scalar.
    pub fn sum_all(self) -> Var<'t> {
        let x = self.value();
        let shape = x.shape();
        let out = Tensor::scalar(x.sum());
        self.unary(out, move |g, sink, id| {
            sink.add(id, Tensor::full(shape.0, shape.1, g.data()[0]));
        })
    }

    /// Mean of all elements, producing a `1x1` scalar.
    pub fn mean_all(self) -> Var<'t> {
        let n = self.value().numel() as f32;
        self.sum_all().scale(1.0 / n)
    }

    /// Column sums, producing a `(1, m)` row.
    pub fn sum_axis0(self) -> Var<'t> {
        let x = self.value();
        let rows = x.rows();
        let out = sum_axis0_t(&x);
        self.unary(out, move |g, sink, id| {
            let mut dx = Tensor::zeros(rows, g.cols());
            for r in 0..rows {
                dx.row_mut(r).copy_from_slice(g.row(0));
            }
            sink.add(id, dx);
        })
    }

    /// Column means, producing a `(1, m)` row.
    pub fn mean_axis0(self) -> Var<'t> {
        let n = self.value().rows() as f32;
        self.sum_axis0().scale(1.0 / n)
    }

    /// Row sums, producing an `(n, 1)` column.
    pub fn sum_axis1(self) -> Var<'t> {
        let x = self.value();
        let cols = x.cols();
        let out = sum_axis1_t(&x);
        self.unary(out, move |g, sink, id| {
            let mut dx = Tensor::zeros(g.rows(), cols);
            for r in 0..g.rows() {
                let gv = g.get(r, 0);
                dx.row_mut(r).fill(gv);
            }
            sink.add(id, dx);
        })
    }

    /// Inverted-scaling (training) dropout. Identity when `p == 0`.
    pub fn dropout<R: Rng>(self, p: f32, rng: &mut R) -> Var<'t> {
        if p <= 0.0 {
            return self;
        }
        assert!(p < 1.0, "dropout probability must be < 1");
        let x = self.value();
        let keep = 1.0 - p;
        let inv_keep = 1.0 / keep;
        let mask_data: Vec<f32> = (0..x.numel())
            .map(|_| {
                if rng.gen::<f32>() < keep {
                    inv_keep
                } else {
                    0.0
                }
            })
            .collect();
        let mask = Arc::new(Tensor::from_vec(mask_data, x.rows(), x.cols()));
        let out = x.zip(&mask, |x, m| x * m);
        let m = mask.clone();
        self.unary(out, move |g, sink, id| {
            sink.add(id, g.zip(&m, |g, m| g * m));
        })
    }

    /// Elementwise multiply by a constant tensor (no gradient into the
    /// constant). Supports the same broadcasting as [`Var::mul`].
    ///
    /// A CSR-backed constant (the bag-of-words batch in the reconstruction
    /// term `log p(x) ⊙ x`) takes a scatter path over the nonzeros, in both
    /// the forward and the backward pass. Zero entries of the constant
    /// yield exact `+0.0` outputs where the dense path would compute
    /// `x · 0.0 = ±0.0`; every consumer of this product (`sum_all`, the
    /// gradient chain) treats those identically, and the batch itself is
    /// finite, so losses and gradients are unchanged.
    pub fn mul_const(self, c: &Arc<Tensor>) -> Var<'t> {
        let x = self.value();
        if c.is_sparse() {
            assert_eq!(
                x.shape(),
                c.shape(),
                "mul_const with a CSR constant requires matching shapes"
            );
            let out = mul_dense_csr(&x, c);
            let c = c.clone();
            return self.unary(out, move |g, sink, id| {
                sink.add(id, mul_dense_csr(g, &c));
            });
        }
        let out = broadcast_zip(&x, c, |a, b| a * b);
        let shape = x.shape();
        let c = c.clone();
        self.unary(out, move |g, sink, id| {
            let gb = broadcast_zip(g, &c, |g, c| g * c);
            sink.add(id, reduce_to_shape(&gb, shape));
        })
    }

    /// The bag-of-words log-likelihood `Σᵢⱼ xᵢⱼ · ln max((θ·β)ᵢⱼ, eps)` of
    /// `self = θ (B, K)`, `beta (K, V)` and a constant batch `x (B, V)`, as
    /// one `(1, 1)` tape node that touches only the nonzeros of `x` (given
    /// as CSR, or found by scanning a dense `x`).
    ///
    /// Its value and its gradients into `θ` and `β` are bitwise those of
    /// the chain `self.matmul(beta).ln_clamped(eps).mul_const(x).sum_all()`,
    /// which builds the dense `(B, V)` product only to multiply most of its
    /// logarithms by zero:
    ///
    /// - forward, `R = θ·β` is computed at the nonzeros only (an SDDMM, each
    ///   entry summed from `+0.0` over ascending `k` as the `nn` tile
    ///   does), and the terms `ln max(R, eps) · x` are summed with
    ///   [`Tensor::sum`]'s grouping over the dense flat index;
    /// - backward, `d = (g·x) / max(R, eps)` at the nonzeros, then
    ///   `dθ = d·βᵀ` through `sgemm_csr_nt` (which follows `sgemm_nt`'s
    ///   route rule) and `dβ = (dᵀ·θ)ᵀ` through
    ///   [`crate::sgemm::sgemm_csr_t_dense`] (ascending batch rows, the
    ///   `tn` tile's order), deposited into `θ` first, as `matmul` does.
    ///
    /// Each of the three sparse products counts in [`crate::csr_matmuls`].
    ///
    /// Every skipped term is an exact `±0.0` product added to an
    /// accumulator that starts at `+0.0` and so is never `-0.0`: it can
    /// change no bit. (As with the other CSR kernels this holds for finite
    /// operands: a non-finite `β` entry in a column the batch never uses
    /// reaches `dθ` through the dense chain's `0 · inf` but not here.)
    pub fn bow_log_likelihood(self, beta: Var<'t>, x: &Arc<Tensor>, eps: f32) -> Var<'t> {
        let (theta, beta_v) = (self.value(), beta.value());
        let (b, k) = theta.shape();
        let v = beta_v.cols();
        assert_eq!(beta_v.rows(), k, "beta rows must match theta columns");
        assert_eq!(x.shape(), (b, v), "x must be (theta rows, beta columns)");
        let x = match x.csr() {
            Some(_) => x.clone(),
            None => Arc::new(Tensor::from_csr(CsrMatrix::from_dense(b, v, x.data()))),
        };
        let xs = x.csr().expect("CSR by construction");
        let beta_t = beta_v.transposed();
        let mut r = vec![0.0f32; xs.nnz()];
        count_csr_matmul();
        sddmm_csr(xs, k, theta.data(), beta_t.data(), &mut r);
        let terms: Vec<f32> = r
            .iter()
            .zip(xs.values())
            .map(|(&r, &x)| r.max(eps).ln() * x)
            .collect();
        let out = Tensor::scalar(sum_at_nonzeros(xs, &terms));
        let (a_req, b_req) = (self.requires_grad(), beta.requires_grad());
        let (a_id, b_id) = (self.id, beta.id);
        let req = a_req || b_req;
        let backward = req.then(|| {
            Box::new(move |g: &Tensor, sink: &mut GradSink| {
                let gv = g.data()[0];
                let xs = x.csr().expect("CSR by construction");
                let d = xs.with_values(
                    r.iter()
                        .zip(xs.values())
                        .map(|(&r, &x)| (gv * x) / r.max(eps))
                        .collect(),
                );
                if a_req {
                    let mut d_theta = Tensor::zeros(b, k);
                    count_csr_matmul();
                    sgemm_csr_nt(&d, k, beta_t.data(), d_theta.data_mut());
                    sink.add(a_id, d_theta);
                }
                if b_req {
                    let mut d_beta_t = Tensor::zeros(v, k);
                    count_csr_matmul();
                    sgemm_csr_t_dense(&d, k, theta.data(), d_beta_t.data_mut());
                    sink.add(b_id, d_beta_t.transposed());
                }
            }) as _
        });
        self.tape().push(out, req, backward)
    }

    /// Elementwise add a constant tensor (no gradient into the constant).
    pub fn add_const(self, c: &Arc<Tensor>) -> Var<'t> {
        let x = self.value();
        let out = broadcast_zip(&x, c, |a, b| a + b);
        let shape = x.shape();
        self.unary(out, move |g, sink, id| {
            sink.add(id, reduce_to_shape(g, shape));
        })
    }

    /// Matrix product with a constant right-hand side: `self @ c`.
    pub fn matmul_const(self, c: &Arc<Tensor>) -> Var<'t> {
        let x = self.value();
        let out = x.matmul(c);
        let c = c.clone();
        self.unary(out, move |g, sink, id| {
            sink.add(id, g.matmul_nt(&c));
        })
    }

    /// Matrix product with a constant transposed right-hand side: `self @ cᵀ`.
    pub fn matmul_nt_const(self, c: &Arc<Tensor>) -> Var<'t> {
        let x = self.value();
        let out = x.matmul_nt(c);
        let c = c.clone();
        self.unary(out, move |g, sink, id| {
            sink.add(id, g.matmul(&c));
        })
    }

    /// Fused symmetric quadratic form `S = X·N·Xᵀ` for a constant
    /// **symmetric** `N` (a similarity kernel), held packed once (see
    /// [`PackedB`]) so no step repacks it.
    ///
    /// Compared to `x.matmul_const(&n).matmul_nt(x)` this keeps the
    /// intermediate `T = X·N` in a caller-owned [`QuadScratch`] instead of a
    /// fresh allocation, and the backward pass reuses it: with `N = Nᵀ`,
    /// `dX = (G + Gᵀ)·T`, which replaces the two largest backward matmuls of
    /// the chained form (`G·Xᵀ`-shaped products against the `(V, V)` kernel)
    /// with a single `(M, M)·(M, V)` product. The forward value is bitwise
    /// identical to the chained form; gradients are mathematically equal but
    /// associate differently.
    ///
    /// The scratch is guarded by a generation counter: if another forward
    /// pass overwrote it before this node's backward runs, `T` is recomputed
    /// rather than silently using stale data.
    pub fn sym_quadratic_const(
        self,
        n: &Arc<PackedB>,
        scratch: &Rc<RefCell<QuadScratch>>,
    ) -> Var<'t> {
        let xv = self.value();
        let (m, v) = xv.shape();
        assert_eq!(
            n.rows(),
            n.cols(),
            "sym_quadratic_const kernel must be square"
        );
        assert_eq!(v, n.rows(), "operand columns must match kernel size");
        debug_assert!(
            packed_is_symmetric(n, 1e-5),
            "sym_quadratic_const requires a symmetric kernel"
        );
        let gen = {
            let mut s = scratch.borrow_mut();
            s.generation += 1;
            let t = s.prepare(m, v);
            sgemm_nn_packed(m, xv.data(), n, t.data_mut());
            s.generation
        };
        let out = {
            let s = scratch.borrow();
            s.t.as_ref()
                .expect("scratch populated above")
                .matmul_nt(&xv)
        };
        let n = n.clone();
        let scratch = scratch.clone();
        self.unary(out, move |g, sink, id| {
            // dX = (G + Gᵀ)·T — relies on N being symmetric.
            let gsym = g.zip(&g.transposed(), |a, b| a + b);
            let s = scratch.borrow();
            let da = if s.generation == gen {
                gsym.matmul(s.t.as_ref().expect("scratch populated by forward"))
            } else {
                drop(s);
                let mut t = Tensor::zeros(m, v);
                sgemm_nn_packed(m, xv.data(), &n, t.data_mut());
                gsym.matmul(&t)
            };
            sink.add(id, da);
        })
    }

    /// Relaxed subset sampling without replacement (Xie & Ermon 2019) of
    /// `draws` words from every row of `self = β (K, V)`, as one tape node:
    /// the `(draws·K, V)` matrix whose row `j·K + t` is draw `j` of row `t`.
    ///
    /// With the Gumbel perturbation `noise (K, V)`, `r¹ = ln max(β, 1e-20) +
    /// noise`, and for each draw `pʲ = softmax(rʲ / τ)` followed by the
    /// suppression `rʲ⁺¹ = rʲ + ln max(1 − pʲ, 1e-6)`. The value and the
    /// gradient into `β` are bitwise those of the primitive chain
    /// `ln_clamped → add_const → (softmax_rows → neg → add_scalar →
    /// clamp_min → ln_clamped → add)ⱽ` with the draws stacked: each row runs
    /// the same float operations in the same order, and the backward walks
    /// the draws in reverse, adding gradients in the order the tape would
    /// (the stacked piece before the suppression term into `pʲ`, the
    /// gradient of `rʲ⁺¹` before the softmax's into `rʲ`). Only the
    /// intermediate tensors and their nodes are gone. (`1 − p` and
    /// `g − h` stand for the chain's `(−1·p) + 1` and `g + (−1·h)`, and one
    /// `max(·, 1e-6)` for its clamp-then-clamped-log pair: IEEE subtraction
    /// is addition of the negation and `max` is idempotent, so the bits
    /// agree.)
    pub fn relaxed_subset_rows(self, noise: &Tensor, draws: usize, temperature: f32) -> Var<'t> {
        let beta = self.value();
        let (k, v) = beta.shape();
        assert_eq!(noise.shape(), (k, v), "noise must match beta's shape");
        assert!(draws >= 1, "need at least one draw");
        let inv_t = 1.0 / temperature;
        let mut out = Tensor::zeros(draws * k, v);
        let mut r = vec![0.0f32; v];
        for t in 0..k {
            for ((r, &b), &g) in r.iter_mut().zip(beta.row(t)).zip(noise.row(t)) {
                *r = b.max(1e-20).ln() + g;
            }
            for j in 0..draws {
                let p = out.row_mut(j * k + t);
                p.copy_from_slice(&r);
                softmax_row_inplace(p, inv_t);
                if j + 1 < draws {
                    for (r, &p) in r.iter_mut().zip(p.iter()) {
                        *r += (1.0 - p).max(1e-6).ln();
                    }
                }
            }
        }
        let out = Arc::new(out);
        let y = out.clone();
        self.unary_shared(out, move |g, sink, id| {
            let mut d_beta = Tensor::zeros(k, v);
            // Gradient of `rʲ⁺¹` (valid below the last draw) and of `pʲ`.
            let mut gr = vec![0.0f32; v];
            let mut gp = vec![0.0f32; v];
            for t in 0..k {
                for j in (0..draws).rev() {
                    let (p, piece) = (y.row(j * k + t), g.row(j * k + t));
                    let suppressed = j + 1 < draws;
                    if suppressed {
                        // Back through `ln_clamped`, `clamp_min`,
                        // `add_scalar` and `neg` into `pʲ`.
                        for c in 0..v {
                            let one_minus = 1.0 - p[c];
                            let g_ln = gr[c] / one_minus.max(1e-6);
                            let g_clamp = if one_minus > 1e-6 { g_ln } else { 0.0 };
                            gp[c] = piece[c] - g_clamp;
                        }
                    } else {
                        gp.copy_from_slice(piece);
                    }
                    // Softmax backward: dx = y ⊙ (g − rowsum(g ⊙ y)) / τ.
                    let mut rd = 0.0f32;
                    rd += gp.iter().zip(p).map(|(&g, &y)| g * y).sum::<f32>();
                    for c in 0..v {
                        let dx = p[c] * (gp[c] - rd) * inv_t;
                        gr[c] = if suppressed { gr[c] + dx } else { dx };
                    }
                }
                // `r¹ = ln_clamped(β) + noise`: the add passes `gr` through.
                let (b, d) = (beta.row(t), d_beta.row_mut(t));
                for c in 0..v {
                    d[c] = gr[c] / b[c].max(1e-20);
                }
            }
            sink.add(id, d_beta);
        })
    }
}

/// Reusable intermediate buffer for [`Var::sym_quadratic_const`]. Owned by
/// the caller (one per regularizer instance) so the `(M, V)` product `X·N`
/// is allocated once and recycled every training step.
#[derive(Default)]
pub struct QuadScratch {
    t: Option<Tensor>,
    generation: u64,
}

impl QuadScratch {
    /// Empty scratch; the buffer is allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hand back a zeroed `(rows, cols)` tensor, reusing the allocation when
    /// the shape is unchanged (the common case: one shape per regularizer).
    fn prepare(&mut self, rows: usize, cols: usize) -> &mut Tensor {
        match &mut self.t {
            Some(t) if t.shape() == (rows, cols) => t.data_mut().fill(0.0),
            slot => *slot = Some(Tensor::zeros(rows, cols)),
        }
        self.t.as_mut().expect("slot filled above")
    }
}

// Referenced from a debug_assert!, which type-checks in release builds too.
fn packed_is_symmetric(t: &PackedB, tol: f32) -> bool {
    (0..t.rows()).all(|i| (i + 1..t.cols()).all(|j| (t.get(i, j) - t.get(j, i)).abs() <= tol))
}

#[cfg(test)]
mod tests {
    use super::{SELU_ALPHA, SELU_LAMBDA};
    use crate::sgemm::PackedB;
    use crate::tape::{Tape, Var};
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Finite-difference gradient check for a scalar-valued function of one
    /// tensor input.
    fn grad_check(
        input: Tensor,
        f: impl for<'a> Fn(&'a Tape, crate::tape::Var<'a>) -> crate::tape::Var<'a>,
        tol: f32,
    ) {
        let tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = f(&tape, x);
        let grads = tape.backward(loss);
        let analytic = grads.get(x).expect("no grad on input").clone();

        let h = 1e-3f32;
        for i in 0..input.numel() {
            let mut plus = input.clone();
            plus.data_mut()[i] += h;
            let mut minus = input.clone();
            minus.data_mut()[i] -= h;
            let tape_p = Tape::new();
            let lp = f(&tape_p, tape_p.leaf(plus)).scalar_value();
            let tape_m = Tape::new();
            let lm = f(&tape_m, tape_m.leaf(minus)).scalar_value();
            let numeric = (lp - lm) / (2.0 * h);
            let a = analytic.data()[i];
            let denom = 1.0f32.max(numeric.abs()).max(a.abs());
            assert!(
                (a - numeric).abs() / denom < tol,
                "grad mismatch at {i}: analytic {a}, numeric {numeric}"
            );
        }
    }

    fn rand_t(r: usize, c: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::randn(r, c, 0.7, &mut rng)
    }

    #[test]
    fn grad_add_mul_chain() {
        grad_check(
            rand_t(3, 4, 1),
            |_t, x| x.mul(x).add(x.scale(3.0)).sum_all(),
            1e-2,
        );
    }

    #[test]
    fn grad_broadcast_row_add() {
        // x (1,4) broadcast against a constant (3,4).
        grad_check(
            rand_t(1, 4, 2),
            |t, x| {
                let c = t.constant(rand_t(3, 4, 3));
                c.add(x).square().sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_broadcast_col_mul() {
        grad_check(
            rand_t(3, 1, 4),
            |t, x| {
                let c = t.constant(rand_t(3, 5, 5));
                c.mul(x).sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_div() {
        grad_check(
            rand_t(2, 3, 6).map(|v| v + 3.0),
            |t, x| {
                let c = t.constant(rand_t(2, 3, 7).map(|v| v + 3.0));
                c.div(x).sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_both_sides() {
        grad_check(
            rand_t(3, 4, 8),
            |t, x| {
                let b = t.constant(rand_t(4, 2, 9));
                x.matmul(b).square().sum_all()
            },
            1e-2,
        );
        grad_check(
            rand_t(4, 2, 10),
            |t, x| {
                let a = t.constant(rand_t(3, 4, 11));
                a.matmul(x).square().sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_nt_tn() {
        grad_check(
            rand_t(3, 4, 12),
            |t, x| {
                let b = t.constant(rand_t(5, 4, 13));
                x.matmul_nt(b).square().sum_all()
            },
            1e-2,
        );
        grad_check(
            rand_t(4, 3, 14),
            |t, x| {
                let b = t.constant(rand_t(4, 5, 15));
                x.matmul_tn(b).square().sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_exp_ln() {
        grad_check(rand_t(2, 3, 16), |_t, x| x.exp().sum_all(), 1e-2);
        grad_check(
            rand_t(2, 3, 17).map(|v| v.abs() + 0.5),
            |_t, x| x.ln_clamped(1e-8).sum_all(),
            1e-2,
        );
    }

    #[test]
    fn grad_activations() {
        grad_check(rand_t(2, 5, 18), |_t, x| x.sigmoid().sum_all(), 1e-2);
        grad_check(rand_t(2, 5, 19), |_t, x| x.tanh_act().sum_all(), 1e-2);
        grad_check(
            rand_t(2, 5, 20).map(|v| v + 0.01),
            |_t, x| x.relu().sum_all(),
            2e-2,
        );
        grad_check(rand_t(2, 5, 21), |_t, x| x.selu().sum_all(), 1e-2);
        grad_check(rand_t(2, 5, 22), |_t, x| x.softplus().sum_all(), 1e-2);
    }

    #[test]
    fn grad_cached_activations_across_branches() {
        // selu/softplus/sigmoid derive their backward from the cached
        // forward activation instead of recomputing `exp`. Pin inputs on
        // both sides of the selu kink (including ±0) and deep into the
        // softplus/sigmoid saturation tails, where a wrong cache formula
        // would diverge most.
        // Keep the finite-difference probes further from the kink than the
        // probe step h = 1e-3, or the two-sided difference straddles it.
        let smooth = Tensor::row_vector(vec![-6.0, -1.5, -0.01, 0.01, 1.5, 6.0]);
        grad_check(smooth.clone(), |_t, x| x.selu().sum_all(), 1e-2);
        grad_check(smooth.clone(), |_t, x| x.softplus().sum_all(), 1e-2);
        grad_check(smooth, |_t, x| x.sigmoid().square().sum_all(), 1e-2);
        let spread = Tensor::row_vector(vec![-6.0, -1.5, -1e-3, 0.0, 1e-3, 1.5, 6.0]);
        // The cached selu backward must equal the direct λ·α·e^x form.
        let tape = Tape::new();
        let x = tape.leaf(spread.clone());
        let grads = tape.backward(x.selu().sum_all());
        let analytic = grads.get(x).unwrap();
        for (i, &xi) in spread.data().iter().enumerate() {
            let direct = if xi > 0.0 {
                SELU_LAMBDA
            } else {
                SELU_LAMBDA * SELU_ALPHA * xi.exp()
            };
            let got = analytic.data()[i];
            assert!(
                (got - direct).abs() <= 1e-6 * direct.abs().max(1.0),
                "selu grad at x={xi}: cached {got} vs direct {direct}"
            );
        }
    }

    #[test]
    fn grad_softmax_and_log_softmax() {
        grad_check(
            rand_t(3, 5, 23),
            |t, x| {
                let w = t.constant(rand_t(3, 5, 24));
                x.softmax_rows(1.0).mul(w).sum_all()
            },
            1e-2,
        );
        grad_check(
            rand_t(3, 5, 25),
            |t, x| {
                let w = t.constant(rand_t(3, 5, 26));
                x.log_softmax_rows(0.7).mul(w).sum_all()
            },
            1e-2,
        );
        grad_check(
            rand_t(2, 4, 27),
            |t, x| {
                let w = t.constant(rand_t(2, 4, 28));
                x.softmax_rows(0.3).mul(w).sum_all()
            },
            2e-2,
        );
    }

    #[test]
    fn grad_logsumexp() {
        grad_check(rand_t(3, 6, 29), |_t, x| x.logsumexp_rows().sum_all(), 1e-2);
    }

    #[test]
    fn grad_reductions() {
        grad_check(rand_t(3, 4, 30), |_t, x| x.mean_all(), 1e-2);
        grad_check(
            rand_t(3, 4, 31),
            |t, x| {
                let w = t.constant(rand_t(1, 4, 32));
                x.sum_axis0().mul(w).sum_all()
            },
            1e-2,
        );
        grad_check(
            rand_t(3, 4, 33),
            |t, x| {
                let w = t.constant(rand_t(3, 1, 34));
                x.sum_axis1().mul(w).sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_mul_const_and_matmul_const() {
        let c = std::sync::Arc::new(rand_t(3, 4, 35));
        grad_check(
            rand_t(3, 4, 36),
            {
                let c = c.clone();
                move |_t, x| x.mul_const(&c).sum_all()
            },
            1e-2,
        );
        let m = std::sync::Arc::new(rand_t(4, 2, 37));
        grad_check(
            rand_t(3, 4, 38),
            {
                let m = m.clone();
                move |_t, x| x.matmul_const(&m).square().sum_all()
            },
            1e-2,
        );
        let mt = std::sync::Arc::new(rand_t(2, 4, 39));
        grad_check(
            rand_t(3, 4, 40),
            {
                let mt = mt.clone();
                move |_t, x| x.matmul_nt_const(&mt).square().sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_clamp_and_sqrt() {
        grad_check(
            rand_t(2, 4, 41).map(|v| v + 2.5),
            |_t, x| x.sqrt_eps(1e-8).sum_all(),
            1e-2,
        );
        grad_check(
            rand_t(2, 4, 42),
            |_t, x| x.clamp_min(-0.1).square().sum_all(),
            3e-2,
        );
    }

    #[test]
    fn dropout_identity_at_zero_rate() {
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(1);
        let x = tape.leaf(rand_t(4, 4, 43));
        let y = x.dropout(0.0, &mut rng);
        assert_eq!(*x.value(), *y.value());
    }

    #[test]
    fn dropout_preserves_expectation() {
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(2);
        let x = tape.leaf(Tensor::ones(100, 100));
        let y = x.dropout(0.3, &mut rng);
        let mean = y.value().mean();
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {mean}");
    }

    #[test]
    fn no_grad_flows_into_constants() {
        let tape = Tape::new();
        let c = tape.constant(Tensor::ones(2, 2));
        let x = tape.leaf(Tensor::full(2, 2, 3.0));
        let loss = x.mul(c).sum_all();
        let grads = tape.backward(loss);
        assert!(grads.get(c).is_none());
        assert!(grads.get(x).is_some());
    }

    #[test]
    fn gradient_accumulates_across_uses() {
        // loss = sum(x) + sum(x) => grad = 2 everywhere.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(2, 2));
        let loss = x.sum_all().add(x.sum_all());
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0; 4]);
    }

    /// The relaxed subset sampler as the primitive chain the fused
    /// [`Var::relaxed_subset_rows`] replaces: one `(K, V)` node per draw.
    fn relaxed_subset_chain<'t>(
        beta: Var<'t>,
        noise: &Arc<Tensor>,
        draws: usize,
        temperature: f32,
    ) -> Vec<Var<'t>> {
        let mut r = beta.ln_clamped(1e-20).add_const(noise);
        let mut out = Vec::with_capacity(draws);
        for j in 0..draws {
            let p = r.softmax_rows(temperature);
            out.push(p);
            if j + 1 < draws {
                let one_minus = p.neg().add_scalar(1.0).clamp_min(1e-6);
                r = r.add(one_minus.ln_clamped(1e-6));
            }
        }
        out
    }

    #[test]
    fn relaxed_subset_rows_matches_primitive_chain_bitwise() {
        use rand::Rng;
        let (k, v) = (3, 40);
        let mut rng = StdRng::seed_from_u64(70);
        let smooth = rand_t(k, v, 71).softmax_rows(1.0);
        // Rows 0 and 2 put all but ~4e-7 of their mass on one word, so a
        // draw there reads `p = 1` and `1 - p` falls under the 1e-6 clamp.
        let mut peaked = smooth.clone();
        for t in [0, 2] {
            let row = peaked.row_mut(t);
            row.fill(1e-8);
            row[5 * t] = 1.0;
        }
        for (name, beta_t) in [("smooth", &smooth), ("peaked", &peaked)] {
            for draws in [1, 2, 10] {
                for temperature in [0.1, 0.5] {
                    let what = format!("{name} beta, {draws} draws, tau {temperature}");
                    let noise = Tensor::from_vec(
                        (0..k * v)
                            .map(|_| -(-rng.gen::<f32>().max(1e-20).ln()).ln())
                            .collect(),
                        k,
                        v,
                    );
                    let weights = rand_t(draws * k, v, 72);
                    let w_stacked = Arc::new(weights.clone());

                    let tape = Tape::new();
                    let beta = tape.leaf(beta_t.clone());
                    let fused = beta.relaxed_subset_rows(&noise, draws, temperature);
                    let grads = tape.backward(fused.mul_const(&w_stacked).sum_all());
                    let (fused_v, fused_g) = (fused.value(), grads.get(beta).unwrap().clone());

                    let tape = Tape::new();
                    let beta = tape.leaf(beta_t.clone());
                    let chain = relaxed_subset_chain(beta, &Arc::new(noise), draws, temperature);
                    // One weighted sum per draw, built after the whole chain so
                    // each draw's first gradient is its stacked piece, as the
                    // fused op adds it.
                    let mut loss: Option<Var> = None;
                    for (j, p) in chain.iter().enumerate() {
                        let mut w = Tensor::zeros(k, v);
                        for t in 0..k {
                            w.row_mut(t).copy_from_slice(weights.row(j * k + t));
                        }
                        let term = p.mul_const(&Arc::new(w)).sum_all();
                        loss = Some(loss.map_or(term, |l| l.add(term)));
                    }
                    let grads = tape.backward(loss.unwrap());
                    let chain_g = grads.get(beta).unwrap();

                    let mut clamped = false;
                    for (j, p) in chain.iter().enumerate() {
                        let p = p.value();
                        for t in 0..k {
                            let (a, b) = (fused_v.row(j * k + t), p.row(t));
                            for (x, y) in a.iter().zip(b) {
                                assert_eq!(x.to_bits(), y.to_bits(), "{what}: draw {j} value");
                            }
                            clamped |= j + 1 < draws && b.iter().any(|&p| 1.0 - p <= 1e-6);
                        }
                    }
                    for (x, y) in fused_g.data().iter().zip(chain_g.data()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{what}: beta gradient");
                    }
                    if name == "peaked" && draws > 1 {
                        assert!(clamped, "{what}: the 1e-6 clamp never engaged");
                    }
                }
            }
        }
    }

    /// A symmetric `(v, v)` kernel, row-major and packed.
    fn sym_kernel(v: usize, seed: u64) -> (Arc<Tensor>, Arc<PackedB>) {
        let base = rand_t(v, v, seed);
        let n = base.zip(&base.transposed(), |a, b| 0.5 * (a + b));
        let packed = Arc::new(PackedB::pack(v, v, n.data()));
        (Arc::new(n), packed)
    }

    #[test]
    fn sym_quadratic_matches_chained_matmuls_bitwise() {
        use super::QuadScratch;
        use std::cell::RefCell;
        use std::rc::Rc;
        let (n, packed) = sym_kernel(6, 44);
        let scratch = Rc::new(RefCell::new(QuadScratch::new()));
        let x_t = rand_t(4, 6, 45);
        let tape = Tape::new();
        let x = tape.leaf(x_t.clone());
        let fused = x.sym_quadratic_const(&packed, &scratch);
        let tape2 = Tape::new();
        let x2 = tape2.leaf(x_t);
        let chained = x2.matmul_const(&n).matmul_nt(x2);
        for (a, b) in fused.value().data().iter().zip(chained.value().data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn grad_sym_quadratic() {
        use super::QuadScratch;
        use std::cell::RefCell;
        use std::rc::Rc;
        let (_, n) = sym_kernel(5, 46);
        let scratch = Rc::new(RefCell::new(QuadScratch::new()));
        grad_check(
            rand_t(3, 5, 47),
            move |_t, x| x.sym_quadratic_const(&n, &scratch).square().sum_all(),
            1e-2,
        );
    }

    #[test]
    fn sym_quadratic_backward_survives_scratch_reuse() {
        // Two forwards share one scratch; backward of the *first* node then
        // sees a stale generation and must recompute T instead of using the
        // second forward's buffer.
        use super::QuadScratch;
        use std::cell::RefCell;
        use std::rc::Rc;
        let (n, packed) = sym_kernel(4, 48);
        let scratch = Rc::new(RefCell::new(QuadScratch::new()));
        let tape = Tape::new();
        let x = tape.leaf(rand_t(3, 4, 49));
        let first = x.sym_quadratic_const(&packed, &scratch).sum_all();
        let y = tape.leaf(rand_t(3, 4, 50));
        let _second = y.sym_quadratic_const(&packed, &scratch);
        let grads = tape.backward(first);
        let got = grads.get(x).expect("grad on x").clone();

        // Reference: gradient of the same loss without scratch interference.
        let tape_ref = Tape::new();
        let xr = tape_ref.leaf(rand_t(3, 4, 49));
        let loss = xr.matmul_const(&n).matmul_nt(xr).sum_all();
        let expect = tape_ref.backward(loss).get(xr).unwrap().clone();
        for (a, b) in got.data().iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn logsumexp_handles_neg_inf_masked_rows() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(
            vec![0.0, f32::NEG_INFINITY, 1.0, f32::NEG_INFINITY],
            2,
            2,
        ));
        let y = x.logsumexp_rows();
        assert!((y.value().get(0, 0) - 0.0).abs() < 1e-6);
        assert!((y.value().get(1, 0) - 1.0).abs() < 1e-6);
    }

    /// A small bag-of-words-like CSR batch and its dense image.
    fn csr_batch_pair() -> (Tensor, Tensor) {
        let csr = Tensor::from_csr(crate::csr::CsrMatrix::from_rows(
            3,
            6,
            vec![
                vec![(0u32, 2.0f32), (4, 1.0)],
                vec![(1, 3.0), (2, 1.0), (5, 4.0)],
                vec![(3, 2.0)],
            ],
        ));
        let dense = csr.to_dense();
        (csr, dense)
    }

    #[test]
    fn csr_constant_matmul_loss_and_weight_grad_match_dense_bitwise() {
        // The encoder first layer: constant batch x (CSR vs dense) times a
        // trainable W. Loss values and dW must agree bitwise.
        let (xs, xd) = csr_batch_pair();
        let w0 = rand_t(6, 5, 60);
        let mut results = Vec::new();
        for x in [xs, xd] {
            let tape = Tape::new();
            let xv = tape.constant(x);
            let w = tape.leaf(w0.clone());
            let loss = xv.matmul(w).square().sum_all();
            let lv = loss.scalar_value();
            let grads = tape.backward(loss);
            results.push((lv, grads.get(w).unwrap().clone()));
        }
        let (l_sparse, g_sparse) = &results[0];
        let (l_dense, g_dense) = &results[1];
        assert_eq!(l_sparse.to_bits(), l_dense.to_bits());
        for (a, b) in g_sparse.data().iter().zip(g_dense.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn csr_mul_const_matches_dense_through_sum_and_grad() {
        // The reconstruction term: log-probs ⊙ x summed. The CSR scatter
        // path may flip the sign of zero products, which sums and gradient
        // chains cannot observe — compare loss and input grad bitwise.
        let (xs, xd) = csr_batch_pair();
        let logits0 = rand_t(3, 6, 61);
        let mut results = Vec::new();
        for x in [xs, xd] {
            let x = std::sync::Arc::new(x);
            let tape = Tape::new();
            let l = tape.leaf(logits0.clone());
            let loss = l.log_softmax_rows(1.0).mul_const(&x).sum_all().scale(-1.0);
            let lv = loss.scalar_value();
            let grads = tape.backward(loss);
            results.push((lv, grads.get(l).unwrap().clone()));
        }
        let (l_sparse, g_sparse) = &results[0];
        let (l_dense, g_dense) = &results[1];
        assert_eq!(l_sparse.to_bits(), l_dense.to_bits());
        for (a, b) in g_sparse.data().iter().zip(g_dense.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
