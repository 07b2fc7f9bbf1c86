//! A conditional GAN (cGAN, Mirza & Osindero) speed-sequence *generator* —
//! the first item on the paper's future-work list ("comparative
//! experiments with other basic models (e.g., cGAN)").
//!
//! Where APOTS trains a *predictor* with an MSE anchor plus an adversarial
//! term, the cGAN is purely generative: `G(z | E)` maps noise and the
//! conditioning vector to a whole α-step speed sequence, trained only by
//! fooling the same conditional discriminator. Prediction reads the last
//! element of the generated sequence, averaging a few noise draws.
//!
//! The comparison isolates the value of APOTS's MSE anchor: a pure cGAN
//! matches the *distribution* of sequences but has no incentive to match
//! the *conditional mean*, so its point-prediction error is structurally
//! higher.

use apots_nn::layer::Layer;
use apots_nn::loss::bce_with_logits;
use apots_nn::optim::{clip_global_norm, Adam, Optimizer};
use apots_nn::{Dense, InferenceMode, Relu, Sequential, Sigmoid};
use apots_tensor::rng::seeded;
use apots_tensor::Tensor;
use apots_traffic::{FeatureMask, SampleFeatures, TrafficDataset};

use crate::config::TrainConfig;
use crate::discriminator::Discriminator;
use crate::encode::encode_context;
use crate::trainer::{EpochStats, TrainReport};

/// A conditional sequence GAN.
pub struct CGan {
    generator: Sequential,
    discriminator: Discriminator,
    z_dim: usize,
    alpha: usize,
    rng: apots_tensor::SeededRng,
}

impl CGan {
    /// Builds generator and discriminator sized for `data`.
    pub fn new(data: &TrafficDataset, hidden: [usize; 2], z_dim: usize, seed: u64) -> Self {
        assert!(z_dim > 0, "CGan: zero noise dimension");
        let alpha = data.config().alpha;
        let n_roads = data.corridor().n_roads();
        let cond_width = SampleFeatures::flat_width(n_roads, alpha);
        let mut rng = seeded(seed);
        let mut generator = Sequential::new();
        generator.add(Box::new(Dense::new(
            z_dim + cond_width,
            hidden[0],
            &mut rng,
        )));
        generator.add(Box::new(Relu::new()));
        generator.add(Box::new(Dense::new(hidden[0], hidden[1], &mut rng)));
        generator.add(Box::new(Relu::new()));
        generator.add(Box::new(Dense::new(hidden[1], alpha, &mut rng)));
        generator.add(Box::new(Sigmoid::new())); // speeds are normalized to [0, 1]
        let discriminator = Discriminator::new(
            alpha,
            cond_width,
            crate::config::HyperPreset::Fast.resolve().disc_hidden,
            true,
            seed ^ 0xC6A4,
        );
        Self {
            generator,
            discriminator,
            z_dim,
            alpha,
            rng,
        }
    }

    /// Generates sequences for a conditioning batch using the given noise:
    /// the training forward when `train` is set, else the `Exact`
    /// inference lane.
    fn generate(&mut self, z: &Tensor, cond: &Tensor, train: bool) -> Tensor {
        let x = Tensor::concat_cols(&[z, cond]);
        if train {
            self.generator.forward(&x)
        } else {
            self.generator.infer(&x, InferenceMode::Exact)
        }
    }

    /// Adversarial training on the dataset's training windows.
    ///
    /// Reuses [`TrainConfig`] for epochs / batch size / learning rate /
    /// mask / seed; the MSE-specific fields are ignored.
    pub fn train(&mut self, data: &TrafficDataset, config: &TrainConfig) -> TrainReport {
        let mut g_opt = Adam::new(config.learning_rate);
        let mut d_opt = Adam::new(config.learning_rate);
        let mut rng = seeded(config.seed ^ 0x9A17);
        let mut report = TrainReport::default();

        for _ in 0..config.epochs {
            let mut sums = (0.0f64, 0.0f64);
            let mut n_batches = 0usize;
            let mut batches = data.train_batches(config.batch_size, &mut rng);
            if let Some(cap) = config.max_train_samples {
                batches.truncate(cap.div_ceil(config.batch_size).max(1));
            }
            for batch in batches {
                let b = batch.len();
                let (real_seq, cond) = encode_context(data, &batch, config.mask);
                let z = Tensor::randn(&[b, self.z_dim], 0.0, 1.0, &mut self.rng);
                let fake_seq = self.generate(&z, &cond, true);

                // D step on stacked real/fake rows.
                let mut rows = Vec::with_capacity(2 * b);
                for i in 0..b {
                    rows.push(real_seq.row(i).to_vec());
                }
                for i in 0..b {
                    rows.push(fake_seq.row(i).to_vec());
                }
                let seq_all = Tensor::from_rows(&rows);
                let mut cond_rows = Vec::with_capacity(2 * b);
                for i in 0..b {
                    cond_rows.push(cond.row(i).to_vec());
                }
                for i in 0..b {
                    cond_rows.push(cond.row(i).to_vec());
                }
                let cond_all = Tensor::from_rows(&cond_rows);
                let mut labels = vec![1.0f32; b];
                labels.extend(std::iter::repeat_n(0.0f32, b));
                let labels = Tensor::new(&[2 * b, 1], labels);
                let logits = self.discriminator.forward(&seq_all, &cond_all, true);
                let (d_loss, dgrad) = bce_with_logits(&logits, &labels);
                let _ = self.discriminator.backward(&dgrad);
                let mut d_params = self.discriminator.params_mut();
                clip_global_norm(&mut d_params, config.grad_clip);
                d_opt.step(d_params);

                // G step: non-saturating by default (a pure GAN saturates
                // badly early on).
                let z = Tensor::randn(&[b, self.z_dim], 0.0, 1.0, &mut self.rng);
                let fake_seq = self.generate(&z, &cond, true);
                let logits = self.discriminator.forward(&fake_seq, &cond, true);
                let (g_loss, dlogits) = apots_nn::loss::generator_loss_nonsaturating(&logits);
                let dseq = self.discriminator.backward(&dlogits);
                let _ = self.generator.backward(&dseq);
                let mut g_params = self.generator.params_mut();
                clip_global_norm(&mut g_params, config.grad_clip);
                g_opt.step(g_params);

                sums.0 += f64::from(g_loss);
                sums.1 += f64::from(d_loss);
                n_batches += 1;
            }
            let n = n_batches.max(1) as f64;
            report.epochs.push(EpochStats {
                mse: f32::NAN, // no regression objective
                p_loss: (sums.0 / n) as f32,
                d_loss: (sums.1 / n) as f32,
            });
        }
        report
    }

    /// Point predictions (normalized) for sample base times: the mean last
    /// element of `n_draws` generated sequences per sample.
    pub fn predict(
        &mut self,
        data: &TrafficDataset,
        mask: FeatureMask,
        samples: &[usize],
        n_draws: usize,
    ) -> Vec<f32> {
        assert!(n_draws > 0, "CGan: need at least one draw");
        let mut out = vec![0.0f32; samples.len()];
        for chunk_start in (0..samples.len()).step_by(256) {
            let chunk = &samples[chunk_start..(chunk_start + 256).min(samples.len())];
            let (_, cond) = encode_context(data, chunk, mask);
            let b = chunk.len();
            for _ in 0..n_draws {
                let z = Tensor::randn(&[b, self.z_dim], 0.0, 1.0, &mut self.rng);
                let seq = self.generate(&z, &cond, false);
                for i in 0..b {
                    out[chunk_start + i] += seq.at2(i, self.alpha - 1);
                }
            }
        }
        for v in &mut out {
            *v /= n_draws as f32;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apots_traffic::calendar::Calendar;
    use apots_traffic::{Corridor, DataConfig, SimConfig};

    fn dataset() -> TrafficDataset {
        let cal = Calendar::new(8, 6, vec![]);
        TrafficDataset::new(
            Corridor::generate_with_calendar(SimConfig::default(), cal),
            DataConfig::default(),
        )
    }

    #[test]
    fn trains_and_predicts_in_range() {
        let data = dataset();
        let mut cfg = TrainConfig::fast_adversarial(FeatureMask::BOTH);
        cfg.epochs = 2;
        cfg.max_train_samples = Some(256);
        let mut cgan = CGan::new(&data, [32, 32], 8, 5);
        let report = cgan.train(&data, &cfg);
        assert_eq!(report.epochs.len(), 2);
        for e in &report.epochs {
            assert!(e.p_loss.is_finite());
            assert!(e.d_loss.is_finite());
        }
        let preds = cgan.predict(&data, cfg.mask, &data.test_samples()[..50], 3);
        assert_eq!(preds.len(), 50);
        // Sigmoid output: normalized speeds in (0, 1).
        assert!(preds.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn different_draws_average_towards_stability() {
        let data = dataset();
        let mut cgan = CGan::new(&data, [16, 16], 4, 9);
        let few = cgan.predict(&data, FeatureMask::BOTH, &data.test_samples()[..20], 1);
        let many = cgan.predict(&data, FeatureMask::BOTH, &data.test_samples()[..20], 8);
        assert_eq!(few.len(), many.len());
        assert!(many.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "at least one draw")]
    fn rejects_zero_draws() {
        let data = dataset();
        let mut cgan = CGan::new(&data, [16, 16], 4, 9);
        let _ = cgan.predict(&data, FeatureMask::BOTH, &data.test_samples()[..2], 0);
    }
}
