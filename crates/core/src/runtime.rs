//! Crash-safe training runtime types: structured training errors,
//! fault-injection kill points, runtime options, and the full-state
//! [`TrainCheckpoint`].
//!
//! A [`TrainCheckpoint`] captures *everything* the training loop needs to
//! resume bit-identically at an epoch boundary:
//!
//! * predictor parameters (and kind label) and, for adversarial runs,
//!   discriminator parameters;
//! * both Adam optimizers' first/second moments and step counters;
//! * the epoch-shuffling [`SeededRng`](apots_tensor::SeededRng) stream
//!   state;
//! * early-stopping monitor state and the completed per-epoch stats;
//! * the divergence sentinel's learning-rate scale and rollback count;
//! * a fingerprint of the training configuration, verified on resume so a
//!   checkpoint is never silently applied to a different run.
//!
//! `u64` fields (RNG state, Adam step counter) and possibly-non-finite
//! floats (early-stopping best) are serialized as decimal strings /
//! bit patterns because JSON numbers are `f64` and lose both.

use apots_nn::{AdamState, StateDict};
use apots_serde::atomic::fnv1a_64;
use apots_serde::schema::Obj;
use apots_serde::{Json, Map};

use crate::config::{PredictorKind, TrainConfig};
use crate::trainer::EpochStats;

/// A structured training failure. No variant is a panic: every failure
/// mode of a long-running job surfaces as data the caller can act on.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// A fault-injection kill point fired (test-only in practice): the
    /// run stopped as if the process had been killed before epoch
    /// `epoch` completed its next durable step.
    Killed {
        /// Epoch at which the kill fired.
        epoch: usize,
    },
    /// The divergence sentinel tripped and every rollback/LR-halving
    /// retry re-diverged.
    Diverged {
        /// Epoch that kept diverging.
        epoch: usize,
        /// Attempts made (initial pass + retries).
        attempts: usize,
    },
    /// A resume checkpoint was produced under a different configuration.
    ConfigMismatch {
        /// Fingerprint of the current configuration.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// A checkpoint existed but could not be decoded/applied.
    Corrupt(String),
    /// A filesystem operation failed.
    Io(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Killed { epoch } => write!(f, "training killed at epoch {epoch}"),
            Self::Diverged { epoch, attempts } => write!(
                f,
                "training diverged at epoch {epoch}: non-finite values persisted \
                 after {attempts} rollback/LR-halving attempts"
            ),
            Self::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different configuration \
                 (fingerprint {found:016x}, current run is {expected:016x})"
            ),
            Self::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            Self::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Where the fault-injection kill hook is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Immediately before epoch `n` starts (nothing of epoch `n` ran).
    EpochStart(usize),
    /// Immediately after the checkpoint covering `n` completed epochs
    /// was durably saved.
    AfterSave(usize),
}

/// Per-batch context handed to the poison hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCtx {
    /// Current epoch.
    pub epoch: usize,
    /// Batch index within the epoch.
    pub batch: usize,
    /// Sentinel attempt for this epoch (0 = first pass).
    pub attempt: usize,
    /// `true` when this consultation targets the RDAT robust step that
    /// follows the main batch step (lets fault injection divergence-test
    /// the attack-in-the-loop path specifically).
    pub rdat: bool,
}

/// Kill-switch hook: return `true` to simulate a crash at this point.
pub type KillHook<'a> = Box<dyn FnMut(KillPoint) -> bool + 'a>;
/// Fault injector: return `true` to poison this batch's gradients with a
/// NaN *before* the sentinel check (exercises the real detection path).
pub type PoisonHook<'a> = Box<dyn FnMut(BatchCtx) -> bool + 'a>;

/// Options for a resumable, fault-tolerant training run.
pub struct TrainOptions<'a> {
    /// Directory for the rotating checkpoint store (`None` = no
    /// persistence; training is then only sentinel-protected).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Save a checkpoint every this many completed epochs (the final
    /// epoch and an early-stop always save).
    pub save_every: usize,
    /// Resume from the newest verifiable checkpoint in
    /// [`TrainOptions::checkpoint_dir`] if one exists.
    pub resume: bool,
    /// Divergence-sentinel retry budget per epoch: rollback + halve the
    /// learning rate up to this many times before giving up with
    /// [`TrainError::Diverged`].
    pub max_divergence_retries: usize,
    /// Fault injection: simulated process kill.
    pub kill_hook: Option<KillHook<'a>>,
    /// Fault injection: per-batch NaN poisoning.
    pub poison_hook: Option<PoisonHook<'a>>,
}

impl Default for TrainOptions<'_> {
    fn default() -> Self {
        Self {
            checkpoint_dir: None,
            save_every: 1,
            resume: false,
            max_divergence_retries: 3,
            kill_hook: None,
            poison_hook: None,
        }
    }
}

impl<'a> TrainOptions<'a> {
    /// Options that persist checkpoints under `dir` every `save_every`
    /// epochs and resume from it when `resume` is set.
    pub fn checkpointed(
        dir: impl Into<std::path::PathBuf>,
        save_every: usize,
        resume: bool,
    ) -> Self {
        Self {
            checkpoint_dir: Some(dir.into()),
            save_every: save_every.max(1),
            resume,
            ..Self::default()
        }
    }
}

/// Fingerprint of everything that determines a training trajectory
/// besides the data itself: predictor kind and the full [`TrainConfig`].
/// Floats are hashed by bit pattern, so the fingerprint is exact.
pub fn config_fingerprint(kind: PredictorKind, config: &TrainConfig) -> u64 {
    let early = config
        .early_stopping
        .map(|(p, d)| format!("{p}:{:08x}", d.to_bits()));
    let rdat = config.rdat.map(|r| {
        format!(
            "{}:{:08x}:{:08x}:{:08x}",
            r.probes,
            r.theta.to_bits(),
            r.weight.to_bits(),
            r.weight_cap.to_bits()
        )
    });
    let canonical = format!(
        "kind={}|epochs={}|sched={:?}|early={early:?}|batch={}|lr={:08x}|adv={}|mask={:?}|\
         clip={:08x}|gen={:?}|warmup={}|advw={:08x}|cap={:?}|cond={}|rdat={rdat:?}|seed={}",
        kind.label(),
        config.epochs,
        config.lr_schedule,
        config.batch_size,
        config.learning_rate.to_bits(),
        config.adversarial,
        config.mask,
        config.grad_clip.to_bits(),
        config.gen_loss,
        config.adv_warmup_epochs,
        config.adv_weight.to_bits(),
        config.max_train_samples,
        config.conditional_discriminator,
        config.seed,
    );
    fnv1a_64(canonical.as_bytes())
}

/// The full resumable training state at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Number of completed epochs (resume starts at this epoch index).
    pub epoch: usize,
    /// Whether early stopping already ended the run.
    pub stopped: bool,
    /// Divergence-sentinel learning-rate scale carried across epochs.
    pub lr_scale: f32,
    /// Total sentinel rollbacks so far.
    pub rollbacks: usize,
    /// [`config_fingerprint`] of the producing run.
    pub fingerprint: u64,
    /// Epoch-shuffling RNG stream state `(state, inc)`.
    pub rng_state: (u64, u64),
    /// Predictor kind label (`F`/`L`/`C`/`H`).
    pub predictor_kind: String,
    /// Predictor parameters.
    pub predictor: StateDict,
    /// Predictor-optimizer state.
    pub p_opt: AdamState,
    /// Discriminator parameters (adversarial runs only).
    pub discriminator: Option<StateDict>,
    /// Discriminator-optimizer state (adversarial runs only).
    pub d_opt: Option<AdamState>,
    /// Early-stopping monitor state `(best, stale)` if enabled.
    pub stopper: Option<(f32, usize)>,
    /// Per-epoch stats of the completed epochs.
    pub stats: Vec<EpochStats>,
}

fn u64_str(v: u64) -> Json {
    Json::from(v.to_string())
}

/// The keys [`TrainCheckpoint::to_json`] writes.
const KEYS: &str = "epoch stopped lr_scale rollbacks fingerprint rng_state rng_inc kind predictor \
                    p_opt discriminator d_opt stopper stats";

fn stats_to_json(stats: &[EpochStats]) -> Json {
    Json::Arr(
        stats
            .iter()
            .map(|s| {
                let mut m = Map::new();
                m.insert("mse".to_string(), Json::from(s.mse));
                m.insert("p_loss".to_string(), Json::from(s.p_loss));
                m.insert("d_loss".to_string(), Json::from(s.d_loss));
                Json::Obj(m)
            })
            .collect(),
    )
}

impl TrainCheckpoint {
    /// Serializes the checkpoint to its JSON payload (the caller seals
    /// and persists it through the [`crate::persist::CheckpointStore`]).
    pub fn to_json(&self) -> Json {
        let mut root = Map::new();
        root.insert("epoch".to_string(), Json::from(self.epoch));
        root.insert("stopped".to_string(), Json::from(self.stopped));
        root.insert("lr_scale".to_string(), Json::from(self.lr_scale));
        root.insert("rollbacks".to_string(), Json::from(self.rollbacks));
        root.insert("fingerprint".to_string(), u64_str(self.fingerprint));
        root.insert("rng_state".to_string(), u64_str(self.rng_state.0));
        root.insert("rng_inc".to_string(), u64_str(self.rng_state.1));
        root.insert("kind".to_string(), Json::from(self.predictor_kind.as_str()));
        root.insert("predictor".to_string(), self.predictor.to_json());
        root.insert("p_opt".to_string(), self.p_opt.to_json());
        root.insert(
            "discriminator".to_string(),
            self.discriminator
                .as_ref()
                .map_or(Json::Null, StateDict::to_json),
        );
        root.insert(
            "d_opt".to_string(),
            self.d_opt.as_ref().map_or(Json::Null, AdamState::to_json),
        );
        root.insert(
            "stopper".to_string(),
            self.stopper.map_or(Json::Null, |(best, stale)| {
                let mut m = Map::new();
                // `best` can legitimately be ±∞; store the bit pattern.
                m.insert("best_bits".to_string(), Json::from(best.to_bits()));
                m.insert("stale".to_string(), Json::from(stale));
                Json::Obj(m)
            }),
        );
        root.insert("stats".to_string(), stats_to_json(&self.stats));
        Json::Obj(root)
    }

    /// Deserializes a payload produced by [`TrainCheckpoint::to_json`];
    /// a key that writer never emits is refused.
    ///
    /// # Errors
    /// Returns a descriptive error on any structural problem; corrupt
    /// input never panics.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let doc = Obj::new(value, "TrainCheckpoint")?.only(KEYS)?;
        let rng_state = (
            doc.req("rng_state")?.u64_text()?,
            doc.req("rng_inc")?.u64_text()?,
        );
        if rng_state.1 & 1 == 0 {
            return Err("TrainCheckpoint: rng_inc must be odd".to_string());
        }
        let stopper = match doc.opt("stopper") {
            None => None,
            Some(f) => {
                let s = f.obj()?.only("best_bits stale")?;
                let bits = s.req("best_bits")?.usize_within(0..=u32::MAX as usize)? as u32;
                Some((f32::from_bits(bits), s.req("stale")?.usize()?))
            }
        };
        let stats = doc.req("stats")?.arr()?.iter().enumerate().map(|(i, e)| {
            let e =
                Obj::new(e, format!("TrainCheckpoint stats[{i}]"))?.only("mse p_loss d_loss")?;
            Ok(EpochStats {
                mse: e.req("mse")?.f32()?,
                p_loss: e.req("p_loss")?.f32()?,
                d_loss: e.req("d_loss")?.f32()?,
            })
        });
        Ok(Self {
            epoch: doc.req("epoch")?.usize()?,
            stopped: doc.req("stopped")?.bool()?,
            lr_scale: doc.req("lr_scale")?.f32()?,
            rollbacks: doc.req("rollbacks")?.usize()?,
            fingerprint: doc.req("fingerprint")?.u64_text()?,
            rng_state,
            predictor_kind: doc.req("kind")?.str()?.to_string(),
            predictor: StateDict::from_json(doc.req("predictor")?.value())
                .map_err(|e| format!("TrainCheckpoint predictor: {e}"))?,
            p_opt: AdamState::from_json(doc.req("p_opt")?.value())
                .map_err(|e| format!("TrainCheckpoint p_opt: {e}"))?,
            discriminator: doc
                .opt("discriminator")
                .map(|f| StateDict::from_json(f.value()))
                .transpose()
                .map_err(|e| format!("TrainCheckpoint discriminator: {e}"))?,
            d_opt: doc
                .opt("d_opt")
                .map(|f| AdamState::from_json(f.value()))
                .transpose()
                .map_err(|e| format!("TrainCheckpoint d_opt: {e}"))?,
            stopper,
            stats: stats.collect::<Result<_, String>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apots_tensor::Tensor;
    use apots_traffic::FeatureMask;

    /// Synthetic checkpoint threading *caller-measured* stats through —
    /// the fixture used to fabricate `p_loss: 0.3` regardless of what the
    /// run produced, which hid roundtrip bugs for any value that wasn't
    /// one of the hard-coded constants.
    fn sample_checkpoint_with(stats: Vec<EpochStats>) -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: 3,
            stopped: false,
            lr_scale: 0.5,
            rollbacks: 1,
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            rng_state: (u64::MAX - 7, 0x1234_5679), // odd inc
            predictor_kind: "F".to_string(),
            predictor: StateDict::from_tensors(vec![Tensor::from_vec(vec![0.25, -1.5])]),
            p_opt: AdamState {
                t: 12,
                m: StateDict::from_tensors(vec![Tensor::from_vec(vec![0.1, 0.2])]),
                v: StateDict::from_tensors(vec![Tensor::from_vec(vec![0.01, 0.02])]),
            },
            discriminator: Some(StateDict::from_tensors(vec![Tensor::zeros(&[2, 2])])),
            d_opt: Some(AdamState {
                t: 12,
                m: StateDict::from_tensors(vec![]),
                v: StateDict::from_tensors(vec![]),
            }),
            stopper: Some((f32::INFINITY, 0)),
            stats,
        }
    }

    fn sample_checkpoint() -> TrainCheckpoint {
        sample_checkpoint_with(vec![
            EpochStats {
                mse: 0.5,
                p_loss: 0.5,
                d_loss: 0.0,
            },
            EpochStats {
                mse: 0.25,
                p_loss: 0.7,
                d_loss: 0.7,
            },
        ])
    }

    #[test]
    fn checkpoint_json_roundtrip_is_lossless_and_byte_stable() {
        let ck = sample_checkpoint();
        let json = ck.to_json();
        let text = json.to_string();
        let back = TrainCheckpoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ck);
        // Full u64 range survives (would be lossy as a JSON number)…
        assert_eq!(back.rng_state.0, u64::MAX - 7);
        // …and so does a non-finite stopper best.
        assert_eq!(back.stopper.unwrap().0, f32::INFINITY);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn threaded_stats_roundtrip_bit_exactly() {
        // Regression: the old fixture fabricated `p_loss: 0.3`, so the
        // roundtrip test never saw values off the hard-coded happy path.
        // Thread awkward measured-looking values through and require
        // bit-exact recovery.
        let stats = vec![
            EpochStats {
                mse: 0.3f32,    // inexact in binary
                p_loss: 1.0e-7, // denormal-adjacent magnitude
                d_loss: f32::MIN_POSITIVE,
            },
            EpochStats {
                mse: 1.0 / 3.0,
                p_loss: std::f32::consts::PI,
                d_loss: 123456.78,
            },
        ];
        let ck = sample_checkpoint_with(stats.clone());
        let text = ck.to_json().to_string();
        let back = TrainCheckpoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        for (b, s) in back.stats.iter().zip(&stats) {
            assert_eq!(b.mse.to_bits(), s.mse.to_bits());
            assert_eq!(b.p_loss.to_bits(), s.p_loss.to_bits());
            assert_eq!(b.d_loss.to_bits(), s.d_loss.to_bits());
        }
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn fingerprint_covers_rdat_knobs() {
        use crate::config::RdatConfig;
        let base = TrainConfig::fast_plain(FeatureMask::BOTH);
        let f0 = config_fingerprint(PredictorKind::Fc, &base);
        let with = base.clone().with_rdat(RdatConfig::default());
        let f1 = config_fingerprint(PredictorKind::Fc, &with);
        assert_ne!(f0, f1, "enabling RDAT must change the fingerprint");
        let mut tweaked = with.clone();
        tweaked.rdat.as_mut().unwrap().probes += 1;
        assert_ne!(f1, config_fingerprint(PredictorKind::Fc, &tweaked));
        let mut tweaked = with.clone();
        tweaked.rdat.as_mut().unwrap().weight = 0.5;
        assert_ne!(f1, config_fingerprint(PredictorKind::Fc, &tweaked));
    }

    #[test]
    fn from_json_rejects_malformed_payloads() {
        let good = sample_checkpoint().to_json().to_string();
        for (bad, why) in [
            (r#"{}"#.to_string(), "empty"),
            (good.replace("\"epoch\":3", "\"epoch\":-1"), "bad epoch"),
            (
                good.replace("\"rng_inc\":\"305419897\"", "\"rng_inc\":\"2\""),
                "even inc",
            ),
            (
                good.replace("\"kind\":\"F\"", "\"kindx\":\"F\""),
                "missing kind",
            ),
            (good.replace("\"mse\":0.5", "\"msx\":0.5"), "bad stats"),
        ] {
            let v = Json::parse(&bad).unwrap();
            assert!(TrainCheckpoint::from_json(&v).is_err(), "accepted {why}");
        }
    }

    /// Only `to_json` writes these payloads, so a key it never emits is
    /// refused, and a number that would load as an unsaveable ±inf `f32`
    /// is refused by name.
    #[test]
    fn from_json_refuses_unknown_keys_and_f32_overflow() {
        let good = sample_checkpoint().to_json().to_string();
        for (from, to, err) in [
            (
                "\"epoch\":3",
                "\"epoch\":3,\"epochs\":3",
                "TrainCheckpoint: unknown key \"epochs\" (valid keys: epoch, stopped,",
            ),
            (
                "\"stale\":0",
                "\"stale\":0,\"best\":1",
                "TrainCheckpoint stopper: unknown key \"best\" (valid keys: best_bits, stale)",
            ),
            (
                "\"lr_scale\":0.5",
                "\"lr_scale\":1e39",
                "TrainCheckpoint: lr_scale = 1e39 is not finite as f32",
            ),
            (
                "\"mse\":0.25",
                "\"mse\":-1e40",
                "TrainCheckpoint stats[1]: mse = -1e40 is not finite as f32",
            ),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good);
            let e = TrainCheckpoint::from_json(&Json::parse(&bad).unwrap()).unwrap_err();
            assert!(e.starts_with(err), "{e}");
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_knob() {
        let base = TrainConfig::fast_plain(FeatureMask::BOTH);
        let f0 = config_fingerprint(PredictorKind::Fc, &base);
        assert_eq!(f0, config_fingerprint(PredictorKind::Fc, &base.clone()));
        assert_ne!(f0, config_fingerprint(PredictorKind::Lstm, &base));
        let mut c = base.clone();
        c.seed += 1;
        assert_ne!(f0, config_fingerprint(PredictorKind::Fc, &c));
        let mut c = base.clone();
        c.learning_rate *= 2.0;
        assert_ne!(f0, config_fingerprint(PredictorKind::Fc, &c));
        let mut c = base.clone();
        c.mask = FeatureMask::SPEED_ONLY;
        assert_ne!(f0, config_fingerprint(PredictorKind::Fc, &c));
        let mut c = base.clone();
        c.epochs += 1;
        assert_ne!(f0, config_fingerprint(PredictorKind::Fc, &c));
    }

    #[test]
    fn train_error_display_is_actionable() {
        let msgs = [
            TrainError::Killed { epoch: 4 }.to_string(),
            TrainError::Diverged {
                epoch: 2,
                attempts: 4,
            }
            .to_string(),
            TrainError::ConfigMismatch {
                expected: 1,
                found: 2,
            }
            .to_string(),
            TrainError::Corrupt("bad".into()).to_string(),
            TrainError::Io("disk".into()).to_string(),
        ];
        assert!(msgs[0].contains("epoch 4"));
        assert!(msgs[1].contains("rollback"));
        assert!(msgs[2].contains("fingerprint"));
        assert!(msgs[3].contains("bad") && msgs[4].contains("disk"));
    }
}
