//! # apots-tensor
//!
//! A small, fully dependency-free n-dimensional `f32` tensor used as the
//! numerical substrate for the APOTS reproduction. It provides exactly
//! what the hand-written neural-network layers and the statistical baselines
//! need: contiguous row-major storage, 2-D matrix products (including the
//! transposed variants required by backpropagation), element-wise algebra,
//! axis reductions, and a Cholesky-based ridge-regression solver — plus the
//! workspace's in-house seeded randomness ([`rng`]).
//!
//! Design notes:
//! * tensors are generic over a [`storage::Storage`] backend
//!   ([`TensorBase`]); the default [`F32Storage`](storage::F32Storage) is
//!   a contiguous row-major `Vec<f32>`, so layers that need exotic access
//!   patterns (im2col, BPTT) can work on raw slices, and the int8
//!   inference lane ([`quant`]) rides the same type;
//! * shape mismatches are programming errors and panic with a descriptive
//!   message, mirroring the behaviour of mainstream array libraries;
//! * all randomness is funnelled through caller-provided [`rng::Rng`]
//!   instances so experiments are reproducible end-to-end.

mod kernels;
pub mod linalg;
pub mod quant;
pub mod reference;
pub mod rng;
pub mod storage;
mod tensor;
pub mod workspace;

pub use quant::QTensor;
pub use rng::Rng;
pub use storage::InferenceMode;
pub use tensor::{Tensor, TensorBase};

/// Convenience alias used across the workspace for seeded RNGs.
pub type SeededRng = rng::SeededRng;
