//! Predictor kinds, hyper-parameter presets (Table I) and training options.

use apots_traffic::FeatureMask;

/// The four predictor families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Fully-connected network (the paper's `F`).
    Fc,
    /// Long short-term memory network (`L`).
    Lstm,
    /// Convolutional network over the road×time image (`C`).
    Cnn,
    /// CNN feeding an LSTM (`H`, the paper's recommended predictor).
    Hybrid,
}

impl PredictorKind {
    /// All four kinds in the paper's column order (F, L, C, H).
    pub fn all() -> [Self; 4] {
        [Self::Fc, Self::Lstm, Self::Cnn, Self::Hybrid]
    }

    /// The paper's one-letter label.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Fc => "F",
            Self::Lstm => "L",
            Self::Cnn => "C",
            Self::Hybrid => "H",
        }
    }
}

/// Which hyper-parameter set to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HyperPreset {
    /// Table I of the paper: F 512-128-256-64; L 512,512;
    /// C 128/32/64 filters (3×3, 1×1, 3×3); H = C's conv stack + L.
    Paper,
    /// Same architectures with reduced widths, sized so the full Table III
    /// grid trains on a small CPU host (the reference host has 2 logical
    /// CPUs, DESIGN.md §6). EXPERIMENTS.md records which preset produced
    /// each number.
    Fast,
}

/// Concrete layer widths for one predictor.
#[derive(Debug, Clone)]
pub struct PredictorHyper {
    /// Dense widths for `F` (ignored by others).
    pub fc_hidden: Vec<usize>,
    /// Conv filter counts for `C`/`H` (kernels fixed at 3×3, 1×1, 3×3).
    pub conv_filters: [usize; 3],
    /// Dense width of the conv head for `C`.
    pub conv_head: usize,
    /// LSTM hidden sizes for `L`/`H`.
    pub lstm_hidden: [usize; 2],
    /// Discriminator dense widths (5 layers total incl. the logit layer).
    pub disc_hidden: [usize; 4],
}

impl HyperPreset {
    /// Parses the CLI / `APOTS_PRESET` spelling (`fast` | `paper`).
    ///
    /// # Errors
    /// Returns `"<value>": expected fast or paper` (the value
    /// debug-quoted) for any other spelling, `Paper` included.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fast" => Ok(Self::Fast),
            "paper" => Ok(Self::Paper),
            other => Err(format!("{other:?}: expected fast or paper")),
        }
    }

    /// Resolves the preset into concrete widths.
    pub fn resolve(&self) -> PredictorHyper {
        match self {
            Self::Paper => PredictorHyper {
                fc_hidden: vec![512, 128, 256, 64],
                conv_filters: [128, 32, 64],
                conv_head: 64,
                lstm_hidden: [512, 512],
                disc_hidden: [256, 128, 64, 32],
            },
            Self::Fast => PredictorHyper {
                fc_hidden: vec![128, 64, 64, 32],
                conv_filters: [12, 6, 12],
                conv_head: 32,
                lstm_hidden: [32, 32],
                disc_hidden: [64, 48, 32, 16],
            },
        }
    }
}

/// Generator-side adversarial loss variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenLoss {
    /// `log(1 − D(Ŝ))` — the paper's literal Eq 1.
    Saturating,
    /// `−log D(Ŝ)` — the standard non-saturating alternative (ablation).
    NonSaturating,
}

/// RDAT-style defense mode (Liu et al.): attack-in-the-loop sample
/// reweighting. When enabled, every training batch is followed by a
/// *robust step*: the trainer probes the batch with worst-of-K random
/// θ-bounded speed perturbations (the same constraint layer the
/// `apots-attack` black-box attacks use), upweights the samples whose
/// loss the probe degraded most, and takes one extra MSE step on the
/// perturbed batch. The probe RNG rides the epoch stream, so RDAT runs
/// checkpoint/resume bit-identically through the PR-2 machinery, and the
/// divergence sentinel covers the robust step like any other batch work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdatConfig {
    /// Random θ-bounded probes per batch (worst-of-K; ≥ 1).
    pub probes: usize,
    /// Per-step perturbation bound (the paper's θ = 0.3).
    pub theta: f32,
    /// Global weight on the robust-step gradient.
    pub weight: f32,
    /// Cap on the per-sample vulnerability reweight multiplier.
    pub weight_cap: f32,
}

impl Default for RdatConfig {
    fn default() -> Self {
        Self {
            probes: 3,
            theta: 0.3,
            weight: 1.0,
            weight_cap: 3.0,
        }
    }
}

/// Training options shared by the plain and adversarial loops.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the (possibly capped) training set.
    pub epochs: usize,
    /// Learning-rate schedule applied on top of [`Self::learning_rate`].
    pub lr_schedule: apots_nn::LrSchedule,
    /// Early stopping on the epoch training MSE (`None` disables).
    pub early_stopping: Option<(usize, f32)>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate for both `P` and `D` (Table I uses 0.001).
    pub learning_rate: f32,
    /// Whether to run the APOTS adversarial loop (otherwise MSE only).
    pub adversarial: bool,
    /// Feature groups visible to the model (Fig 5 / Table II ablations).
    pub mask: FeatureMask,
    /// Global-norm gradient clip (stabilises BPTT).
    pub grad_clip: f32,
    /// Generator loss variant (adversarial runs only).
    pub gen_loss: GenLoss,
    /// Epochs of pure-MSE warm-up before the adversarial loop engages
    /// (pretraining P stabilises GAN training and matches the usual
    /// GAN-regression recipe; warm-up epochs cost the same as plain ones).
    pub adv_warmup_epochs: usize,
    /// Weight λ on the adversarial term of J_P (Eq 1). The paper fixes the
    /// MSE:adversarial *count* ratio at α:1 (footnote 1) but on normalized
    /// speeds the raw BCE gradient is ~100× the MSE gradient, so a weight
    /// below 1 restores the intended MSE-dominant balance. Calibrated on
    /// the simulator so adversarial training reproduces the paper's shape
    /// (large abrupt-change gains, mild whole-period effect).
    pub adv_weight: f32,
    /// Cap on training samples per epoch (`None` = use all); the cap is a
    /// deterministic prefix of the shuffled epoch ordering.
    pub max_train_samples: Option<usize>,
    /// Whether the discriminator sees the conditioning vector `E`
    /// (Eq 4; turning this off is the cGAN-vs-GAN ablation).
    pub conditional_discriminator: bool,
    /// RDAT defense mode (`None` disables; composes with both plain and
    /// adversarial training).
    pub rdat: Option<RdatConfig>,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
}

impl TrainConfig {
    /// MSE-only training at paper hyper-parameters.
    pub fn plain(mask: FeatureMask) -> Self {
        Self {
            epochs: 20,
            lr_schedule: apots_nn::LrSchedule::Constant,
            early_stopping: None,
            batch_size: 64,
            learning_rate: 1e-3,
            adversarial: false,
            mask,
            grad_clip: 5.0,
            gen_loss: GenLoss::Saturating,
            adv_warmup_epochs: 0,
            adv_weight: 0.05,
            max_train_samples: None,
            conditional_discriminator: true,
            rdat: None,
            seed: 7,
        }
    }

    /// Adversarial (APOTS) training at paper hyper-parameters.
    pub fn adversarial(mask: FeatureMask) -> Self {
        Self {
            adversarial: true,
            ..Self::plain(mask)
        }
    }

    /// CPU-friendly plain training used by the experiment harnesses.
    ///
    /// Budget-matched with [`Self::fast_adversarial`] so w/-vs-w/o
    /// adversarial comparisons are like for like.
    pub fn fast_plain(mask: FeatureMask) -> Self {
        Self {
            epochs: 12,
            max_train_samples: Some(4096),
            ..Self::plain(mask)
        }
    }

    /// CPU-friendly adversarial training used by the experiment harnesses:
    /// the same total budget as [`Self::fast_plain`], with the first half
    /// spent on the pure-MSE warm-up.
    pub fn fast_adversarial(mask: FeatureMask) -> Self {
        Self {
            epochs: 12,
            adversarial: true,
            adv_warmup_epochs: 6,
            max_train_samples: Some(4096),
            ..Self::plain(mask)
        }
    }

    /// Enables the RDAT defense mode on top of any base config.
    pub fn with_rdat(mut self, rdat: RdatConfig) -> Self {
        assert!(rdat.probes >= 1, "RdatConfig: probes must be >= 1");
        assert!(
            rdat.theta > 0.0 && rdat.theta.is_finite(),
            "RdatConfig: theta must be positive"
        );
        self.rdat = Some(rdat);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = PredictorKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["F", "L", "C", "H"]);
    }

    #[test]
    fn paper_preset_matches_table1() {
        let h = HyperPreset::Paper.resolve();
        assert_eq!(h.fc_hidden, vec![512, 128, 256, 64]);
        assert_eq!(h.conv_filters, [128, 32, 64]);
        assert_eq!(h.lstm_hidden, [512, 512]);
        // Discriminator: "five fully-connected layers" = 4 hidden + logit.
        assert_eq!(h.disc_hidden.len(), 4);
    }

    #[test]
    fn fast_preset_is_smaller() {
        let p = HyperPreset::Paper.resolve();
        let f = HyperPreset::Fast.resolve();
        assert!(f.lstm_hidden[0] < p.lstm_hidden[0]);
        assert!(f.conv_filters[0] < p.conv_filters[0]);
    }

    #[test]
    fn preset_parses_its_two_spellings_only() {
        assert_eq!(HyperPreset::parse("fast"), Ok(HyperPreset::Fast));
        assert_eq!(HyperPreset::parse("paper"), Ok(HyperPreset::Paper));
        for bad in ["Paper", "FAST", "", "papers"] {
            assert_eq!(
                HyperPreset::parse(bad),
                Err(format!("{bad:?}: expected fast or paper"))
            );
        }
    }

    #[test]
    fn config_builders() {
        let c = TrainConfig::plain(FeatureMask::SPEED_ONLY);
        assert!(!c.adversarial);
        assert!(c.rdat.is_none());
        let a = TrainConfig::fast_adversarial(FeatureMask::BOTH);
        assert!(a.adversarial);
        assert!(a.max_train_samples.is_some());
        assert_eq!(a.learning_rate, 1e-3);
    }

    #[test]
    fn rdat_builder_sets_defense_mode() {
        let c = TrainConfig::fast_plain(FeatureMask::BOTH).with_rdat(RdatConfig::default());
        let r = c.rdat.unwrap();
        assert!(r.probes >= 1);
        assert_eq!(r.theta, 0.3);
    }

    #[test]
    #[should_panic(expected = "probes must be >= 1")]
    fn rdat_builder_rejects_zero_probes() {
        let _ = TrainConfig::fast_plain(FeatureMask::BOTH).with_rdat(RdatConfig {
            probes: 0,
            ..RdatConfig::default()
        });
    }
}
