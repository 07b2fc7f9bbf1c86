//! Fully-connected (dense) layer: `y = x·W + b`.

use apots_tensor::rng::Rng;
use apots_tensor::{InferenceMode, Tensor};

use crate::init::xavier_uniform;
use crate::layer::{Layer, Param};
use crate::weight::Weight;

/// A dense layer mapping `[batch, in_features]` to `[batch, out_features]`.
pub struct Dense {
    w: Weight,  // [in, out]
    b: Tensor,  // [out]
    db: Tensor, // [out]
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero biases.
    pub fn new<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "Dense: zero-sized layer"
        );
        Self {
            w: Weight::new(xavier_uniform(
                &[in_features, out_features],
                in_features,
                out_features,
                rng,
            )),
            b: Tensor::zeros(&[out_features]),
            db: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.w.value().shape()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.w.value().shape()[1]
    }

    /// Read-only view of the weight matrix (testing / inspection).
    pub fn weights(&self) -> &Tensor {
        self.w.value()
    }

    /// Read-only view of the bias vector (testing / inspection).
    pub fn bias(&self) -> &Tensor {
        &self.b
    }

    fn check_input(&self, input: &Tensor) {
        assert_eq!(input.rank(), 2, "Dense expects rank-2 input");
        assert_eq!(
            input.cols(),
            self.in_features(),
            "Dense: input has {} features, layer expects {}",
            input.cols(),
            self.in_features()
        );
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.check_input(input);
        let mut out = input.matmul(self.w.value());
        out.add_row_broadcast(&self.b);
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        assert_eq!(grad_out.rank(), 2, "Dense grad must be rank-2");
        assert_eq!(grad_out.rows(), x.rows(), "Dense grad batch mismatch");
        assert_eq!(
            grad_out.cols(),
            self.out_features(),
            "Dense grad feature mismatch"
        );
        // Accumulate into the persistent grad tensors (`_into` kernels are
        // bit-identical to their allocating twins; see DESIGN.md §9/§10) so
        // steady-state backward performs no gradient allocation at all.
        x.matmul_at_b_into(grad_out, &mut self.w.grad); // xᵀ · dy
        grad_out.sum_axis0_into(&mut self.db);
        grad_out.matmul_a_bt(self.w.value()) // dy · wᵀ
    }

    fn infer(&self, input: &Tensor, mode: InferenceMode) -> Tensor {
        self.check_input(input);
        let mut out = self.w.matmul(input, mode);
        out.add_row_broadcast(&self.b);
        out
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        vec![
            self.w.param(),
            Param {
                value: &mut self.b,
                grad: &mut self.db,
            },
        ]
    }

    fn prepare(&mut self, mode: InferenceMode) {
        self.w.prepare(mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apots_tensor::rng::seeded;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = seeded(1);
        let mut d = Dense::new(3, 2, &mut rng);
        // Make deterministic: w = 0, b = [1, 2]
        d.w.value_mut().fill_zero();
        d.b.data_mut().copy_from_slice(&[1.0, 2.0]);
        let x = Tensor::ones(&[4, 3]);
        let y = d.forward(&x);
        assert_eq!(y.shape(), &[4, 2]);
        for i in 0..4 {
            assert_eq!(y.row(i), &[1.0, 2.0]);
        }
    }

    #[test]
    fn backward_matches_manual() {
        let mut rng = seeded(2);
        let mut d = Dense::new(2, 1, &mut rng);
        d.w.value_mut().data_mut().copy_from_slice(&[3.0, -1.0]);
        d.b.data_mut().copy_from_slice(&[0.5]);
        let x = Tensor::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.0]]);
        let _ = d.forward(&x);
        let dy = Tensor::from_rows(&[vec![1.0], vec![2.0]]);
        let dx = d.backward(&dy);
        // dx = dy·wᵀ
        assert_eq!(dx.data(), &[3.0, -1.0, 6.0, -2.0]);
        // dw = xᵀ·dy = [[1*1 + -1*2], [2*1 + 0*2]] = [[-1], [2]]
        assert_eq!(d.w.grad.data(), &[-1.0, 2.0]);
        // db = sum dy
        assert_eq!(d.db.data(), &[3.0]);
    }

    #[test]
    fn param_count() {
        let mut rng = seeded(3);
        let mut d = Dense::new(5, 7, &mut rng);
        assert_eq!(d.param_count(), 5 * 7 + 7);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_requires_forward() {
        let mut rng = seeded(4);
        let mut d = Dense::new(2, 2, &mut rng);
        let _ = d.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "features")]
    fn forward_rejects_wrong_width() {
        let mut rng = seeded(5);
        let mut d = Dense::new(3, 2, &mut rng);
        let _ = d.forward(&Tensor::zeros(&[1, 4]));
    }

    #[test]
    fn infer_lanes_track_exact() {
        let mut rng = seeded(6);
        let mut d = Dense::new(16, 8, &mut rng);
        let x = Tensor::rand_uniform(&[5, 16], -1.0, 1.0, &mut rng);
        let exact = d.infer(&x, InferenceMode::Exact);
        assert_eq!(exact, d.forward(&x), "Exact lane must be bitwise");
        d.prepare(InferenceMode::Int8);
        let q = d.infer(&x, InferenceMode::Int8);
        for (a, b) in exact.data().iter().zip(q.data()) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }
}
