//! The discriminator `D` of §V-A: five fully-connected layers scoring
//! whether a sequence of α speeds is real, conditioned on the contextual
//! vector `E` of Eq 3/4.
//!
//! The final layer is linear — its sigmoid lives inside the
//! BCE-with-logits loss for numerical stability, so `forward` returns
//! *logits*. Conditioning is by input concatenation (`[Ŝ ⊕ E]`), the
//! standard cGAN construction; an unconditional mode (zeroing `E`'s
//! contribution) backs the conditioning ablation.

use apots_nn::layer::{Layer, Param};
use apots_nn::{Dense, InferenceMode, LeakyRelu, Sequential};
use apots_tensor::rng::seeded;
use apots_tensor::Tensor;

/// The conditional sequence discriminator.
pub struct Discriminator {
    net: Sequential,
    seq_width: usize,
    cond_width: usize,
    conditional: bool,
}

impl Discriminator {
    /// Builds the five-layer stack for sequences of `seq_width` speeds
    /// conditioned on `cond_width` context features.
    ///
    /// `hidden` holds the four hidden widths; the fifth layer is the logit.
    /// When `conditional` is false the conditioning input is zeroed (the
    /// Eq 2-without-E ablation) while keeping the parameter count fixed.
    pub fn new(
        seq_width: usize,
        cond_width: usize,
        hidden: [usize; 4],
        conditional: bool,
        seed: u64,
    ) -> Self {
        assert!(
            seq_width > 0 && cond_width > 0,
            "Discriminator: zero widths"
        );
        let mut rng = seeded(seed);
        let mut net = Sequential::new();
        let mut prev = seq_width + cond_width;
        for &w in &hidden {
            net.add(Box::new(Dense::new(prev, w, &mut rng)));
            net.add(Box::new(LeakyRelu::new(0.2)));
            prev = w;
        }
        net.add(Box::new(Dense::new(prev, 1, &mut rng)));
        Self {
            net,
            seq_width,
            cond_width,
            conditional,
        }
    }

    /// Scores sequences: returns logits `[batch, 1]`. `train` selects the
    /// training forward, which keeps what [`Discriminator::backward`]
    /// needs; otherwise the `Exact` inference lane keeps nothing.
    ///
    /// `seq` is `[batch, α]`, `cond` is `[batch, cond_width]`.
    pub fn forward(&mut self, seq: &Tensor, cond: &Tensor, train: bool) -> Tensor {
        assert_eq!(seq.cols(), self.seq_width, "Discriminator: bad seq width");
        assert_eq!(
            cond.cols(),
            self.cond_width,
            "Discriminator: bad cond width"
        );
        assert_eq!(seq.rows(), cond.rows(), "Discriminator: batch mismatch");
        let x = if self.conditional {
            Tensor::concat_cols(&[seq, cond])
        } else {
            let zeros = Tensor::zeros(cond.shape());
            Tensor::concat_cols(&[seq, &zeros])
        };
        if train {
            self.net.forward(&x)
        } else {
            self.net.infer(&x, InferenceMode::Exact)
        }
    }

    /// Backpropagates ∂loss/∂logits, storing parameter gradients and
    /// returning ∂loss/∂sequence (`[batch, α]`) — the signal the predictor
    /// trains on.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let dx = self.net.backward(grad_logits);
        dx.slice_cols(0, self.seq_width)
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<Param<'_>> {
        self.net.params_mut()
    }

    /// Number of scalar parameters.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Sequence width α this discriminator expects.
    pub fn seq_width(&self) -> usize {
        self.seq_width
    }

    /// Whether conditioning is active.
    pub fn is_conditional(&self) -> bool {
        self.conditional
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apots_nn::loss::bce_with_logits;
    use apots_nn::optim::{Adam, Optimizer};
    use apots_tensor::rng::seeded;

    #[test]
    fn logits_shape() {
        let mut d = Discriminator::new(12, 20, [32, 24, 16, 8], true, 1);
        let mut rng = seeded(2);
        let seq = Tensor::rand_uniform(&[5, 12], 0.0, 1.0, &mut rng);
        let cond = Tensor::rand_uniform(&[5, 20], 0.0, 1.0, &mut rng);
        let out = d.forward(&seq, &cond, true);
        assert_eq!(out.shape(), &[5, 1]);
    }

    #[test]
    fn backward_returns_sequence_gradient() {
        let mut d = Discriminator::new(12, 20, [32, 24, 16, 8], true, 1);
        let mut rng = seeded(3);
        let seq = Tensor::rand_uniform(&[4, 12], 0.0, 1.0, &mut rng);
        let cond = Tensor::rand_uniform(&[4, 20], 0.0, 1.0, &mut rng);
        let _ = d.forward(&seq, &cond, true);
        let dseq = d.backward(&Tensor::ones(&[4, 1]));
        assert_eq!(dseq.shape(), &[4, 12]);
        assert!(dseq.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn five_dense_layers() {
        let mut d = Discriminator::new(12, 8, [16, 12, 8, 4], true, 1);
        // 5 Dense layers → 10 parameter tensors (w + b each).
        assert_eq!(d.params_mut().len(), 10);
    }

    #[test]
    fn learns_to_separate_shifted_distributions() {
        let mut d = Discriminator::new(6, 4, [32, 24, 16, 8], true, 5);
        let mut opt = Adam::new(5e-3);
        let mut rng = seeded(6);
        let mut final_loss = f32::INFINITY;
        for _ in 0..150 {
            let real = Tensor::rand_uniform(&[16, 6], 0.6, 1.0, &mut rng);
            let fake = Tensor::rand_uniform(&[16, 6], 0.0, 0.4, &mut rng);
            let cond = Tensor::zeros(&[32, 4]);
            let seq = Tensor::concat_cols(&[&real.transpose2(), &fake.transpose2()]).transpose2(); // stack rows: [32, 6]
            let mut labels = vec![1.0f32; 16];
            labels.extend(vec![0.0f32; 16]);
            let labels = Tensor::new(&[32, 1], labels);
            let logits = d.forward(&seq, &cond, true);
            let (loss, grad) = bce_with_logits(&logits, &labels);
            let _ = d.backward(&grad);
            opt.step(d.params_mut());
            final_loss = loss;
        }
        assert!(final_loss < 0.25, "BCE stayed at {final_loss}");
    }

    #[test]
    fn unconditional_mode_ignores_context() {
        let mut d = Discriminator::new(6, 4, [16, 12, 8, 4], false, 9);
        assert!(!d.is_conditional());
        let mut rng = seeded(10);
        let seq = Tensor::rand_uniform(&[3, 6], 0.0, 1.0, &mut rng);
        let c1 = Tensor::rand_uniform(&[3, 4], 0.0, 1.0, &mut rng);
        let c2 = Tensor::rand_uniform(&[3, 4], 0.0, 1.0, &mut rng);
        let o1 = d.forward(&seq, &c1, false);
        let o2 = d.forward(&seq, &c2, false);
        assert_eq!(o1, o2);
    }

    #[test]
    #[should_panic(expected = "bad seq width")]
    fn rejects_wrong_sequence_width() {
        let mut d = Discriminator::new(6, 4, [8, 8, 8, 8], true, 1);
        let _ = d.forward(&Tensor::zeros(&[1, 5]), &Tensor::zeros(&[1, 4]), false);
    }
}
