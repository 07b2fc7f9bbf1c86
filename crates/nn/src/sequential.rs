//! A container running layers in order, reversing for backward.

use apots_tensor::{InferenceMode, Tensor};

use crate::layer::{Layer, Param};

/// An ordered stack of layers behaving as a single [`Layer`].
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer, builder style.
    #[must_use]
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn infer(&self, input: &Tensor, mode: InferenceMode) -> Tensor {
        let Some((first, rest)) = self.layers.split_first() else {
            return input.clone();
        };
        rest.iter()
            .fold(first.infer(input, mode), |x, layer| layer.infer(&x, mode))
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn prepare(&mut self, mode: InferenceMode) {
        for layer in &mut self.layers {
            layer.prepare(mode);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use apots_tensor::rng::seeded;

    #[test]
    fn chains_forward_and_backward() {
        let mut rng = seeded(1);
        let mut net = Sequential::new()
            .push(Dense::new(3, 4, &mut rng))
            .push(Relu::new())
            .push(Dense::new(4, 2, &mut rng));
        assert_eq!(net.len(), 3);
        let x = Tensor::ones(&[5, 3]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[5, 2]);
        assert_eq!(net.infer(&x, InferenceMode::Exact), y);
        let dx = net.backward(&Tensor::ones(&[5, 2]));
        assert_eq!(dx.shape(), &[5, 3]);
    }

    #[test]
    fn collects_all_params() {
        let mut rng = seeded(2);
        let mut net = Sequential::new()
            .push(Dense::new(2, 3, &mut rng))
            .push(Relu::new())
            .push(Dense::new(3, 1, &mut rng));
        assert_eq!(net.params_mut().len(), 4); // 2 weight + 2 bias tensors
        assert_eq!(net.param_count(), (2 * 3 + 3) + (3 + 1));
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        assert!(net.is_empty());
        let x = Tensor::from_vec(vec![1.0, 2.0]);
        assert_eq!(net.forward(&x), x);
        assert_eq!(net.infer(&x, InferenceMode::Int8), x);
        assert_eq!(net.backward(&x), x);
    }
}
