//! [`Weight`]: a trainable weight matrix with its int8 copy, the one
//! handle a layer's inference body multiplies through on either lane.

use std::sync::OnceLock;

use apots_tensor::quant::{self, QTensor};
use apots_tensor::{InferenceMode, Tensor};

use crate::layer::Param;

/// A weight matrix `[in, out]`, the gradient the last backward pass left
/// in it, and an int8 copy of the values for the `Int8` lane. The copy is
/// quantized once, on [`Weight::prepare`] or the first int8 product, and
/// dropped whenever the values are handed out for writing, so it never
/// outlives the values it was built from.
pub(crate) struct Weight {
    value: Tensor,
    pub(crate) grad: Tensor,
    int8: OnceLock<QTensor>,
}

impl Weight {
    /// Wraps initial values with a zero gradient.
    pub(crate) fn new(value: Tensor) -> Self {
        Self {
            grad: Tensor::zeros(value.shape()),
            value,
            int8: OnceLock::new(),
        }
    }

    /// The f32 values.
    pub(crate) fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable values; drops the int8 copy.
    #[cfg(test)]
    pub(crate) fn value_mut(&mut self) -> &mut Tensor {
        self.int8.take();
        &mut self.value
    }

    /// The (value, gradient) pair an optimizer updates; drops the int8
    /// copy.
    pub(crate) fn param(&mut self) -> Param<'_> {
        self.int8.take();
        Param {
            value: &mut self.value,
            grad: &mut self.grad,
        }
    }

    /// Builds the int8 copy now when `mode` needs it.
    pub(crate) fn prepare(&self, mode: InferenceMode) {
        if mode == InferenceMode::Int8 {
            self.int8();
        }
    }

    /// `x · W` on `mode`'s lane, with `x`'s leading axes flattened into
    /// rows. `Exact` runs the training kernels (`matmul` for a rank-2
    /// `x`, `matmul_flat_into` otherwise), so it is bit-identical to the
    /// product a training forward computes; `Int8` runs
    /// [`quant::qmatmul`] against the int8 copy.
    pub(crate) fn matmul(&self, x: &Tensor, mode: InferenceMode) -> Tensor {
        match mode {
            InferenceMode::Exact if x.rank() == 2 => x.matmul(&self.value),
            InferenceMode::Exact => {
                let rows: usize = x.shape()[..x.rank() - 1].iter().product();
                let mut out = Tensor::zeros(&[rows, self.value.shape()[1]]);
                x.matmul_flat_into(&self.value, &mut out);
                out
            }
            InferenceMode::Int8 => quant::qmatmul(x, self.int8()),
        }
    }

    fn int8(&self) -> &QTensor {
        self.int8
            .get_or_init(|| quant::quantize_weights(&self.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apots_tensor::rng::seeded;

    /// Writing the values drops a stale int8 copy; the next int8 product
    /// quantizes the new values.
    #[test]
    fn writes_drop_the_int8_copy() {
        let mut rng = seeded(1);
        let mut w = Weight::new(Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng));
        let x = Tensor::rand_uniform(&[2, 4], -1.0, 1.0, &mut rng);
        w.prepare(InferenceMode::Int8);
        let before = w.matmul(&x, InferenceMode::Int8);
        w.value_mut().scale_in_place(2.0);
        let after = w.matmul(&x, InferenceMode::Int8);
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!((2.0 * a - b).abs() < 1e-5, "{a} vs {b}");
        }
        let _ = w.param();
        assert!(w.int8.get().is_none(), "param() must drop the copy");
    }

    /// A rank-3 input is a stack of rows on both lanes.
    #[test]
    fn flattens_leading_axes() {
        let mut rng = seeded(2);
        let w = Weight::new(Tensor::rand_uniform(&[5, 3], -1.0, 1.0, &mut rng));
        let x = Tensor::rand_uniform(&[2, 4, 5], -1.0, 1.0, &mut rng);
        let rows = x.reshape(&[8, 5]);
        for mode in [InferenceMode::Exact, InferenceMode::Int8] {
            assert_eq!(w.matmul(&x, mode), w.matmul(&rows, mode), "{mode}");
        }
    }
}
