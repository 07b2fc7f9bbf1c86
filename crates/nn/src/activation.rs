//! Element-wise activation layers: ReLU, leaky ReLU, sigmoid.
//!
//! Each training forward caches what its derivative needs (the input for
//! the rectifiers, the *output* for sigmoid, whose derivative is cheapest
//! in terms of the output). Inference applies the same function on
//! either lane.

use apots_tensor::{InferenceMode, Tensor};

use crate::layer::Layer;

/// Rectified linear unit: `max(0, x)`.
#[derive(Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        self.infer(input, InferenceMode::Exact)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Relu::backward called before forward");
        x.par_zip_with(grad_out, |xi, g| if xi > 0.0 { g } else { 0.0 })
    }

    fn infer(&self, input: &Tensor, _mode: InferenceMode) -> Tensor {
        input.par_map(|v| v.max(0.0))
    }
}

/// Leaky rectified linear unit: `x` if positive else `slope·x`.
///
/// The discriminator uses leaky ReLU, standard for GAN discriminators since
/// DCGAN, to keep gradients flowing on the negative side.
pub struct LeakyRelu {
    slope: f32,
    cached_input: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative-side slope (e.g. 0.2).
    pub fn new(slope: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&slope),
            "LeakyRelu slope should be in [0, 1), got {slope}"
        );
        Self {
            slope,
            cached_input: None,
        }
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        self.infer(input, InferenceMode::Exact)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("LeakyRelu::backward called before forward");
        let s = self.slope;
        x.par_zip_with(grad_out, |xi, g| if xi > 0.0 { g } else { s * g })
    }

    fn infer(&self, input: &Tensor, _mode: InferenceMode) -> Tensor {
        let s = self.slope;
        input.par_map(|v| if v > 0.0 { v } else { s * v })
    }
}

/// Numerically-stable logistic sigmoid applied element-wise.
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Logistic sigmoid: `1 / (1 + e^(−x))`.
#[derive(Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input, InferenceMode::Exact);
        self.cached_output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .as_ref()
            .expect("Sigmoid::backward called before forward");
        y.par_zip_with(grad_out, |yi, g| g * yi * (1.0 - yi))
    }

    fn infer(&self, input: &Tensor, _mode: InferenceMode) -> Tensor {
        input.par_map(sigmoid_scalar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0]);
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = relu.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_forward_backward() {
        let mut lr = LeakyRelu::new(0.1);
        let x = Tensor::from_vec(vec![-2.0, 3.0]);
        let y = lr.forward(&x);
        assert!((y.data()[0] + 0.2).abs() < 1e-6);
        assert_eq!(y.data()[1], 3.0);
        let g = lr.backward(&Tensor::from_vec(vec![1.0, 1.0]));
        assert!((g.data()[0] - 0.1).abs() < 1e-6);
        assert_eq!(g.data()[1], 1.0);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::from_vec(vec![-100.0, 0.0, 100.0]));
        assert!(y.data()[0] >= 0.0 && y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] <= 1.0 && y.data()[2] > 1.0 - 1e-6);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sigmoid_derivative_peak() {
        let mut s = Sigmoid::new();
        let _ = s.forward(&Tensor::from_vec(vec![0.0]));
        let g = s.backward(&Tensor::from_vec(vec![1.0]));
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "slope should be in")]
    fn leaky_relu_rejects_bad_slope() {
        let _ = LeakyRelu::new(1.5);
    }
}
