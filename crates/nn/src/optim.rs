//! The Adam optimizer and global-norm gradient clipping (used to
//! stabilise BPTT through the LSTM predictors).
//!
//! Optimizers are stateful and identify parameters *positionally*: call
//! `step` with the same `params_mut()` ordering every time (which layer
//! containers guarantee).

use apots_serde::schema::Obj;
use apots_serde::{Json, Map};
use apots_tensor::Tensor;

use crate::layer::Param;
use crate::state::StateDict;

/// A gradient-descent update rule.
pub trait Optimizer {
    /// Applies one update step to `params` using their stored gradients.
    fn step(&mut self, params: Vec<Param<'_>>);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the given learning rate and default
    /// `β₁ = 0.9, β₂ = 0.999, ε = 1e−8` — the settings implied by the
    /// paper's `lr = 0.001` (Table I).
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates Adam with explicit hyper-parameters.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr > 0.0, "Adam: learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        assert!(eps > 0.0);
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of update steps taken so far (the bias-correction counter).
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// Snapshots the full optimizer state (step counter + first/second
    /// moment estimates) for checkpointing. Capturing a never-stepped
    /// optimizer yields empty moment lists, which restore back to the
    /// lazily-initialized state.
    pub fn capture_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: StateDict::from_tensors(self.m.clone()),
            v: StateDict::from_tensors(self.v.clone()),
        }
    }

    /// Restores a snapshot captured by [`Adam::capture_state`].
    ///
    /// # Errors
    /// Returns an error if the snapshot is internally inconsistent
    /// (mismatched first/second moment counts or shapes); the optimizer is
    /// left untouched on error.
    pub fn restore_state(&mut self, state: AdamState) -> Result<(), String> {
        let m = state.m.into_tensors();
        let v = state.v.into_tensors();
        if m.len() != v.len() {
            return Err(format!(
                "AdamState: {} first moments but {} second moments",
                m.len(),
                v.len()
            ));
        }
        for (i, (a, b)) in m.iter().zip(&v).enumerate() {
            if a.shape() != b.shape() {
                return Err(format!(
                    "AdamState: moment {i} shape mismatch ({:?} vs {:?})",
                    a.shape(),
                    b.shape()
                ));
            }
        }
        self.t = state.t;
        self.m = m;
        self.v = v;
        Ok(())
    }
}

/// A serializable snapshot of an [`Adam`] optimizer's mutable state.
///
/// Hyper-parameters (`lr`, betas, eps) are *not* part of the snapshot —
/// they belong to the training configuration, which the checkpoint layer
/// fingerprints separately.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Bias-correction step counter.
    pub t: u64,
    /// First-moment estimates, in parameter order.
    pub m: StateDict,
    /// Second-moment estimates, in parameter order.
    pub v: StateDict,
}

impl AdamState {
    /// Serializes to `{"t": …, "m": {…}, "v": {…}}`. The step counter is
    /// written as a decimal string so the full `u64` range survives the
    /// JSON number type (`f64` loses integers beyond 2⁵³).
    pub fn to_json(&self) -> Json {
        let mut root = Map::new();
        root.insert("t".to_string(), Json::from(self.t.to_string()));
        root.insert("m".to_string(), self.m.to_json());
        root.insert("v".to_string(), self.v.to_json());
        Json::Obj(root)
    }

    /// Deserializes a value produced by [`AdamState::to_json`]; a key
    /// that writer never emits is refused.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let doc = Obj::new(value, "AdamState")?.only("t m v")?;
        let moments = |key| {
            StateDict::from_json(doc.req(key)?.value()).map_err(|e| format!("AdamState {key}: {e}"))
        };
        Ok(Self {
            t: doc.req("t")?.u64_text()?,
            m: moments("m")?,
            v: moments("v")?,
        })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: Vec<Param<'_>>) {
        apots_obs::metrics::OPTIM_ADAM_STEP.bump();
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(
            self.m.len(),
            params.len(),
            "Adam: parameter count changed between steps"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        // Each element's update is independent, so chunking the moment /
        // weight / gradient slices at identical boundaries and fanning the
        // chunks across the pool is bit-identical to the serial loop.
        const GRAIN: usize = 4096;
        for ((p, m), v) in params
            .into_iter()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            let g = p.grad.data();
            let md = m.data_mut();
            let vd = v.data_mut();
            let w = p.value.data_mut();
            // The chunk body; identical math on the serial and parallel
            // paths (each element is independent, so the split is only a
            // scheduling choice and never changes rounding).
            #[inline(always)]
            fn update_chunk(
                mc: &mut [f32],
                vc: &mut [f32],
                wc: &mut [f32],
                gc: &[f32],
                (beta1, beta2, bc1, bc2, lr, eps): (f32, f32, f32, f32, f32, f32),
            ) {
                for i in 0..gc.len() {
                    mc[i] = beta1 * mc[i] + (1.0 - beta1) * gc[i];
                    vc[i] = beta2 * vc[i] + (1.0 - beta2) * gc[i] * gc[i];
                    let m_hat = mc[i] / bc1;
                    let v_hat = vc[i] / bc2;
                    wc[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
            let coeffs = (beta1, beta2, bc1, bc2, lr, eps);
            if g.len() <= GRAIN || apots_par::current_threads() <= 1 {
                // Serial fast path: no `items` Vec, no scheduling — this is
                // the allocation-free route taken by single-thread training
                // and by every parameter smaller than one grain.
                update_chunk(md, vd, w, g, coeffs);
            } else {
                let items: Vec<_> = md
                    .chunks_mut(GRAIN)
                    .zip(vd.chunks_mut(GRAIN))
                    .zip(w.chunks_mut(GRAIN))
                    .zip(g.chunks(GRAIN))
                    .collect();
                apots_par::parallel_items(items, |(((mc, vc), wc), gc)| {
                    update_chunk(mc, vc, wc, gc, coeffs);
                });
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Rescales all gradients in place so their combined L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
pub fn clip_global_norm(params: &mut [Param<'_>], max_norm: f32) -> f32 {
    assert!(
        max_norm > 0.0,
        "clip_global_norm: max_norm must be positive"
    );
    let total: f32 = params.iter().map(|p| p.grad.norm_sq()).sum();
    let norm = total.sqrt();
    if norm > max_norm && norm.is_finite() {
        let scale = max_norm / norm;
        for p in params.iter_mut() {
            p.grad.scale_in_place(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::Layer;
    use crate::loss::mse;
    use apots_tensor::rng::seeded;
    use apots_tensor::Tensor;

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step is ≈ lr·sign(g).
        let mut w = Tensor::from_vec(vec![0.0]);
        let mut g = Tensor::from_vec(vec![3.0]);
        let mut opt = Adam::new(0.001);
        opt.step(vec![Param {
            value: &mut w,
            grad: &mut g,
        }]);
        assert!((w.data()[0] + 0.001).abs() < 1e-5, "{}", w.data()[0]);
    }

    #[test]
    fn adam_trains_a_dense_layer_to_fit_line() {
        let mut rng = seeded(10);
        let mut layer = Dense::new(1, 1, &mut rng);
        let mut opt = Adam::new(0.05);
        let x = Tensor::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = Tensor::from_rows(&[vec![1.0], vec![3.0], vec![5.0], vec![7.0]]); // y = 2x + 1
        let mut last = f32::INFINITY;
        for _ in 0..500 {
            let pred = layer.forward(&x);
            let (loss, grad) = mse(&pred, &y);
            let _ = layer.backward(&grad);
            opt.step(layer.params_mut());
            last = loss;
        }
        assert!(last < 1e-3, "loss {last}");
        assert!((layer.weights().data()[0] - 2.0).abs() < 0.1);
        assert!((layer.bias().data()[0] - 1.0).abs() < 0.2);
    }

    /// Checkpoint contract: capture → fresh optimizer → restore must make
    /// subsequent steps bit-identical to an uninterrupted optimizer.
    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        let mut w_a = Tensor::from_vec(vec![1.0, -2.0, 0.5]);
        let mut w_b = w_a.clone();
        let grads: Vec<Vec<f32>> = vec![
            vec![0.3, -1.0, 0.7],
            vec![-0.2, 0.4, 0.1],
            vec![0.9, 0.9, -0.9],
        ];
        let mut opt_a = Adam::new(0.01);
        // Take two steps, snapshot mid-run.
        for g in &grads[..2] {
            let mut grad = Tensor::from_vec(g.clone());
            opt_a.step(vec![Param {
                value: &mut w_a,
                grad: &mut grad,
            }]);
        }
        assert_eq!(opt_a.step_count(), 2);
        let snap = opt_a.capture_state();
        let json = snap.to_json().to_string();
        let back = AdamState::from_json(&apots_serde::Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, snap);

        let mut opt_b = Adam::new(0.01);
        opt_b.restore_state(back).unwrap();
        // Fast-forward the fresh weights to the snapshot point…
        w_b.data_mut().copy_from_slice(w_a.data());
        // …then both take the same third step and must agree exactly.
        let mut ga = Tensor::from_vec(grads[2].clone());
        let mut gb = ga.clone();
        opt_a.step(vec![Param {
            value: &mut w_a,
            grad: &mut ga,
        }]);
        opt_b.step(vec![Param {
            value: &mut w_b,
            grad: &mut gb,
        }]);
        assert_eq!(
            w_a.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            w_b.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
        );
    }

    #[test]
    fn adam_restore_rejects_inconsistent_snapshots() {
        let mut opt = Adam::new(0.01);
        let bad = AdamState {
            t: 1,
            m: crate::state::StateDict::from_tensors(vec![Tensor::zeros(&[2])]),
            v: crate::state::StateDict::from_tensors(vec![]),
        };
        assert!(opt.restore_state(bad).unwrap_err().contains("moments"));
        let bad_shape = AdamState {
            t: 1,
            m: crate::state::StateDict::from_tensors(vec![Tensor::zeros(&[2])]),
            v: crate::state::StateDict::from_tensors(vec![Tensor::zeros(&[3])]),
        };
        assert!(opt
            .restore_state(bad_shape)
            .unwrap_err()
            .contains("shape mismatch"));
        // The failed restores left the optimizer pristine.
        assert_eq!(opt.step_count(), 0);
        assert!(opt.capture_state().m.is_empty());
    }

    #[test]
    fn clipping_caps_norm_and_preserves_direction() {
        let mut g1 = Tensor::from_vec(vec![3.0, 0.0]);
        let mut g2 = Tensor::from_vec(vec![4.0]);
        let mut w1 = Tensor::zeros(&[2]);
        let mut w2 = Tensor::zeros(&[1]);
        let mut params = vec![
            Param {
                value: &mut w1,
                grad: &mut g1,
            },
            Param {
                value: &mut w2,
                grad: &mut g2,
            },
        ];
        let pre = clip_global_norm(&mut params, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post: f32 = params.iter().map(|p| p.grad.norm_sq()).sum::<f32>().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
        // Direction preserved: ratios unchanged.
        assert!((params[0].grad.data()[0] / params[1].grad.data()[0] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn clipping_leaves_small_gradients_alone() {
        let mut g = Tensor::from_vec(vec![0.1]);
        let mut w = Tensor::zeros(&[1]);
        let mut params = vec![Param {
            value: &mut w,
            grad: &mut g,
        }];
        clip_global_norm(&mut params, 1.0);
        assert_eq!(params[0].grad.data()[0], 0.1);
    }
}
