//! # apots-nn
//!
//! A from-scratch neural-network library with hand-written forward and
//! backward passes, built specifically for the APOTS reproduction. It
//! provides everything the paper's predictors and discriminator need:
//!
//! * [`Dense`] fully-connected layers;
//! * [`Conv2d`] same-padding 2-D convolutions (im2col based);
//! * [`Lstm`] long short-term memory layers with full backpropagation
//!   through time;
//! * [`activation`] layers (ReLU, leaky ReLU, sigmoid);
//! * [`Sequential`] containers;
//! * numerically-stable [`loss`] functions (MSE, BCE-with-logits — the GAN
//!   losses of Eq 1/2 in the paper);
//! * the [`Adam`] optimizer with global-norm gradient clipping
//!   ([`optim`]);
//! * a finite-difference [`gradcheck`] harness used by this crate's tests to
//!   verify every analytic gradient.
//!
//! Training is *mutable-forward*: `forward(&mut self, ...)` caches
//! whatever the matching `backward` needs, exactly like classic
//! layer-oriented frameworks. No autograd tape — each layer's backward pass
//! is derived and written by hand, then verified by gradient checking.
//! Inference is [`Layer::infer`], each layer's one inference body: it
//! takes `&self`, keeps nothing, and runs one of two [`InferenceMode`]
//! lanes — `Exact`, bit-identical to the training forward, or `Int8`,
//! each weight matrix's quantized copy with i32 accumulation — so one
//! prepared model can answer from many threads at once.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod loss;
pub mod lstm;
pub mod optim;
pub mod schedule;
pub mod sequential;
pub mod state;
mod weight;

pub use activation::{LeakyRelu, Relu, Sigmoid};
pub use conv::Conv2d;
pub use dense::Dense;
pub use layer::{Layer, Param};
pub use lstm::Lstm;
pub use optim::{clip_global_norm, Adam, AdamState, Optimizer};
pub use schedule::{EarlyStopping, LrSchedule};
pub use sequential::Sequential;
pub use state::StateDict;

// Re-exported so layer consumers can name inference modes without a
// direct apots-tensor dependency.
pub use apots_tensor::InferenceMode;
