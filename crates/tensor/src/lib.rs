//! # ct-tensor
//!
//! A small, self-contained deep-learning substrate: dense `f32` tensors,
//! tape-based reverse-mode automatic differentiation, neural-network layers,
//! and first-order optimizers. It exists because the ContraTopic models in
//! this workspace need exactly PyTorch-shaped gradients (MLP encoders,
//! softmax decoders, Gumbel-softmax sampling, contrastive losses) without an
//! external ML framework.
//!
//! ## Quick tour
//!
//! ```
//! use ct_tensor::{Tape, Tensor, Params, Adam, Optimizer};
//!
//! // Minimize (x - 3)^2 with Adam.
//! let mut params = Params::new();
//! let x = params.add("x", Tensor::scalar(0.0));
//! let mut opt = Adam::new(0.2);
//! for _ in 0..200 {
//!     let tape = Tape::new();
//!     let xv = tape.param(&params, x);
//!     let loss = xv.add_scalar(-3.0).square().sum_all();
//!     tape.backward(loss).accumulate_into(&mut params);
//!     opt.step(&mut params);
//! }
//! assert!((params.value(x).data()[0] - 3.0).abs() < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod checkpoint;
pub mod codec;
pub mod csr;
pub mod infer;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod params;
pub mod pool;
pub mod sgemm;
pub mod simd;
pub mod tape;
pub mod tensor;

pub use checkpoint::{params_from_bytes, params_to_bytes};
pub use csr::CsrMatrix;
pub use nn::{Activation, BatchNorm1d, Linear, Mlp};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{he_normal, xavier_uniform, ClipReport, ParamId, Params};
pub use tape::{Grads, Tape, Var};
pub use tensor::{csr_matmuls, Tensor};
