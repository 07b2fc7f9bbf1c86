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
/// The forward pass caches whatever its backward pass needs; calling
/// [`Layer::backward`] before [`Layer::forward`] is a programming error and
/// panics. Gradients are **overwritten** (not accumulated) on each backward
/// call, so one forward/backward pair per optimizer step is the intended
/// usage.
pub trait Layer {
    /// Computes the layer output for `input`.
    ///
    /// `train` selects training-time behaviour: the LSTM and conv layers
    /// keep the caches `backward` needs (BPTT state, the patch matrix)
    /// only on a training forward; inference passes `false`.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Propagates `grad_out` (∂loss/∂output) backwards, storing parameter
    /// gradients internally and returning ∂loss/∂input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

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

    /// Pre-builds whatever `mode` needs before serving (the int8 weight
    /// quantization), so the first request doesn't pay for it. Layers
    /// without an int8 lane ignore this.
    ///
    /// Training never calls this: the training loop only goes through
    /// [`Layer::forward`], which stays on the bit-exact serial kernels
    /// regardless of any prepared state (DESIGN.md §15).
    fn prepare(&mut self, _mode: InferenceMode) {}

    /// Inference-only forward dispatched by [`InferenceMode`].
    ///
    /// `Exact` (the default implementation) is `forward(input, false)` —
    /// bit-identical to what training-time evaluation computes. Layers
    /// with weight matrices override this to route `Int8` through the
    /// quantized matmul; that lane is tolerance-gated, not bit-exact
    /// (DESIGN.md §15).
    fn forward_mode(&mut self, input: &Tensor, _mode: InferenceMode) -> Tensor {
        self.forward(input, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Identity;
    impl Layer for Identity {
        fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
    }

    #[test]
    fn default_params_is_empty() {
        let mut id = Identity;
        assert!(id.params_mut().is_empty());
        assert_eq!(id.param_count(), 0);
    }
}
