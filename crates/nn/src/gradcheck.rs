//! Finite-difference gradient checking.
//!
//! Every analytic backward pass in this crate is validated against central
//! finite differences of a random linear functional of the layer output:
//! `L(out) = Σ cᵢ·outᵢ` with fixed random coefficients `c`, so
//! `∂L/∂out = c` and the layer's `backward(c)` must reproduce the numeric
//! derivative of `L` w.r.t. both the inputs and every parameter.

use apots_tensor::rng::seeded;
use apots_tensor::Tensor;

use crate::layer::Layer;

/// Outcome of a gradient check.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckResult {
    /// Worst relative error over the checked input coordinates.
    pub max_input_err: f32,
    /// Worst relative error over the checked parameter coordinates.
    pub max_param_err: f32,
}

impl GradCheckResult {
    /// Whether both errors are below `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_input_err < tol && self.max_param_err < tol
    }
}

fn rel_err(a: f32, n: f32) -> f32 {
    (a - n).abs() / (a.abs() + n.abs()).max(1e-3)
}

/// Indices to probe: all coordinates for small tensors, an evenly-strided
/// sample of ~`cap` for large ones (keeps O(n · forward) cost bounded).
fn probe_indices(len: usize, cap: usize) -> Vec<usize> {
    if len <= cap {
        (0..len).collect()
    } else {
        let stride = len / cap;
        (0..cap).map(|i| i * stride).collect()
    }
}

/// Checks `layer`'s analytic gradients at `input` against central finite
/// differences with step `eps`. The layer is run with `train = false`-style
/// determinism expected: it must produce identical outputs for identical
/// inputs (don't gradcheck dropout in train mode).
pub fn check_layer(layer: &mut dyn Layer, input: &Tensor, seed: u64, eps: f32) -> GradCheckResult {
    let mut rng = seeded(seed);
    let base_out = layer.forward(input);
    let coeffs = Tensor::rand_uniform(base_out.shape(), -1.0, 1.0, &mut rng);

    // Analytic gradients.
    let dinput = layer.backward(&coeffs);
    let param_grads: Vec<Tensor> = layer
        .params_mut()
        .iter()
        .map(|p| (*p.grad).clone())
        .collect();

    let loss_of = |out: &Tensor| -> f32 {
        out.data()
            .iter()
            .zip(coeffs.data())
            .map(|(&o, &c)| f64::from(o) * f64::from(c))
            .sum::<f64>() as f32
    };

    // Numeric input gradients.
    let mut max_input_err = 0.0f32;
    let mut x = input.clone();
    for idx in probe_indices(input.len(), 64) {
        let orig = x.data()[idx];
        x.data_mut()[idx] = orig + eps;
        let lp = loss_of(&layer.forward(&x));
        x.data_mut()[idx] = orig - eps;
        let lm = loss_of(&layer.forward(&x));
        x.data_mut()[idx] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        max_input_err = max_input_err.max(rel_err(dinput.data()[idx], numeric));
    }

    // Numeric parameter gradients.
    let mut max_param_err = 0.0f32;
    for (pi, pgrad) in param_grads.iter().enumerate() {
        for idx in probe_indices(pgrad.len(), 48) {
            let orig = layer.params_mut()[pi].value.data()[idx];
            layer.params_mut()[pi].value.data_mut()[idx] = orig + eps;
            let lp = loss_of(&layer.forward(input));
            layer.params_mut()[pi].value.data_mut()[idx] = orig - eps;
            let lm = loss_of(&layer.forward(input));
            layer.params_mut()[pi].value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            max_param_err = max_param_err.max(rel_err(pgrad.data()[idx], numeric));
        }
    }

    // Restore caches to the unperturbed state for any subsequent backward.
    let _ = layer.forward(input);

    GradCheckResult {
        max_input_err,
        max_param_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{LeakyRelu, Sigmoid};
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use crate::lstm::Lstm;
    use crate::sequential::Sequential;

    const TOL: f32 = 2e-2;

    #[test]
    fn dense_gradients() {
        let mut rng = seeded(100);
        let mut layer = Dense::new(6, 4, &mut rng);
        let x = Tensor::randn(&[3, 6], 0.0, 1.0, &mut rng);
        let res = check_layer(&mut layer, &x, 0, 1e-2);
        assert!(res.passes(TOL), "{res:?}");
    }

    #[test]
    fn sigmoid_gradients() {
        let mut rng = seeded(101);
        let mut layer = Sigmoid::new();
        let x = Tensor::randn(&[4, 5], 0.0, 2.0, &mut rng);
        let res = check_layer(&mut layer, &x, 1, 1e-2);
        assert!(res.passes(TOL), "{res:?}");
    }

    #[test]
    fn leaky_relu_gradients() {
        let mut rng = seeded(103);
        let mut layer = LeakyRelu::new(0.2);
        // Keep values away from the kink at 0 where finite differences lie.
        let x = Tensor::randn(&[4, 5], 0.0, 1.0, &mut rng).map(|v| {
            if v.abs() < 0.05 {
                v + 0.1
            } else {
                v
            }
        });
        let res = check_layer(&mut layer, &x, 3, 1e-3);
        assert!(res.passes(TOL), "{res:?}");
    }

    #[test]
    fn conv_gradients() {
        let mut rng = seeded(104);
        let mut layer = Conv2d::new(2, 3, 3, 3, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 5], 0.0, 1.0, &mut rng);
        let res = check_layer(&mut layer, &x, 4, 1e-2);
        assert!(res.passes(TOL), "{res:?}");
    }

    #[test]
    fn conv_1x1_gradients() {
        let mut rng = seeded(105);
        let mut layer = Conv2d::new(3, 2, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 3, 4], 0.0, 1.0, &mut rng);
        let res = check_layer(&mut layer, &x, 5, 1e-2);
        assert!(res.passes(TOL), "{res:?}");
    }

    #[test]
    fn lstm_last_gradients() {
        let mut rng = seeded(106);
        let mut layer = Lstm::new(3, 4, false, &mut rng);
        let x = Tensor::randn(&[2, 5, 3], 0.0, 1.0, &mut rng);
        let res = check_layer(&mut layer, &x, 6, 1e-2);
        assert!(res.passes(TOL), "{res:?}");
    }

    #[test]
    fn lstm_sequence_gradients() {
        let mut rng = seeded(107);
        let mut layer = Lstm::new(3, 4, true, &mut rng);
        let x = Tensor::randn(&[2, 4, 3], 0.0, 1.0, &mut rng);
        let res = check_layer(&mut layer, &x, 7, 1e-2);
        assert!(res.passes(TOL), "{res:?}");
    }

    #[test]
    fn stacked_lstm_gradients() {
        let mut rng = seeded(108);
        let mut net = Sequential::new()
            .push(Lstm::new(3, 4, true, &mut rng))
            .push(Lstm::new(4, 3, false, &mut rng));
        let x = Tensor::randn(&[2, 4, 3], 0.0, 1.0, &mut rng);
        let res = check_layer(&mut net, &x, 8, 1e-2);
        assert!(res.passes(TOL), "{res:?}");
    }

    #[test]
    fn mlp_gradients() {
        let mut rng = seeded(109);
        let mut net = Sequential::new()
            .push(Dense::new(5, 8, &mut rng))
            .push(Sigmoid::new())
            .push(Dense::new(8, 3, &mut rng))
            .push(Sigmoid::new());
        let x = Tensor::randn(&[4, 5], 0.0, 1.0, &mut rng);
        let res = check_layer(&mut net, &x, 9, 1e-2);
        assert!(res.passes(TOL), "{res:?}");
    }
}
