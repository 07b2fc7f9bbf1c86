//! The [`Layer`] trait — the contract every building block implements —
//! and [`Param`], the (value, gradient) pair handed to optimizers.

use apots_tensor::{InferenceMode, Tensor};

/// A mutable view of one trainable parameter tensor and its accumulated
/// gradient. Optimizers iterate over these in a stable order.
pub struct Param<'a> {
    /// The parameter values, updated in place by the optimizer.
    pub value: &'a mut Tensor,
    /// The gradient accumulated by the most recent `backward` pass.
    pub grad: &'a mut Tensor,
}

/// A differentiable computation stage.
///
/// Training runs [`Layer::forward`], which caches whatever the matching
/// [`Layer::backward`] needs; calling `backward` before `forward` is a
/// programming error and panics. Gradients are **overwritten** (not
/// accumulated) on each backward call, so one forward/backward pair per
/// optimizer step is the intended usage.
///
/// Inference runs [`Layer::infer`] through `&self`: it writes no state,
/// so one prepared layer can answer from many threads at once.
pub trait Layer: Send + Sync {
    /// Training forward: computes the layer output for `input` and keeps
    /// what `backward` needs.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates `grad_out` (∂loss/∂output) backwards, storing parameter
    /// gradients internally and returning ∂loss/∂input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Inference forward on `mode`'s lane; keeps nothing. `Exact` runs
    /// the training kernels in the training order, so its output equals
    /// `forward`'s bit for bit; `Int8` multiplies by the quantized weight
    /// copies and is tolerance-gated, not bit-exact (DESIGN.md §15).
    fn infer(&self, input: &Tensor, mode: InferenceMode) -> Tensor;

    /// Mutable access to all trainable parameters, in a stable order.
    ///
    /// Parameterless layers return an empty vector (the default).
    fn params_mut(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }

    /// Number of scalar trainable parameters (for reporting).
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Pre-builds whatever `mode` needs before the layer is shared (the
    /// int8 weight copies), so the first request doesn't pay for it.
    /// [`Layer::infer`] builds them on first use otherwise. Layers without
    /// weights ignore this; training never calls it.
    fn prepare(&mut self, _mode: InferenceMode) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Identity;
    impl Layer for Identity {
        fn forward(&mut self, input: &Tensor) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
        fn infer(&self, input: &Tensor, _mode: InferenceMode) -> Tensor {
            input.clone()
        }
    }

    #[test]
    fn default_params_is_empty() {
        let mut id = Identity;
        assert!(id.params_mut().is_empty());
        assert_eq!(id.param_count(), 0);
    }
}
