//! Training loops: plain MSE training and the APOTS adversarial loop,
//! unified under a crash-safe, resumable runtime.
//!
//! The adversarial loop implements Eq 1/2/4 of the paper faithfully:
//!
//! 1. for a batch of base times `t`, the predictor is run on the `α`
//!    shifted windows ending at `t−α+1 … t`, producing the predicted
//!    sequence `Ŝ_{t−α+β+1:t+β}`;
//! 2. the discriminator is trained to score the real sequence
//!    `S_{t−α+β+1:t+β}` as real and `Ŝ` as fake, both conditioned on `E`
//!    (maximising `J_D`, Eq 2/4);
//! 3. the predictor is trained on the sum of the `α` per-window MSE terms
//!    plus one adversarial term `log(1 − D(Ŝ|E))` — the α:1 ratio of the
//!    paper's footnote 1 (minimising `J_P`, Eq 1).
//!
//! # Crash-safe runtime
//!
//! [`train_with_options`] is the full-featured entry point. Around the
//! per-epoch loop it provides:
//!
//! * **Durable checkpoints** — when [`TrainOptions::checkpoint_dir`] is
//!   set, a full-state [`TrainCheckpoint`] (parameters, both Adam
//!   optimizers, RNG stream, early-stopping monitor, LR scale, stats) is
//!   sealed and atomically persisted through the rotating
//!   [`CheckpointStore`] every [`TrainOptions::save_every`] epochs.
//!   Resuming from such a checkpoint reproduces the uninterrupted run
//!   **bit-identically**, because the only RNG consumer inside the loop
//!   is the epoch shuffle and every optimizer moment survives the
//!   round-trip exactly.
//! * **A divergence sentinel** — every batch's loss, gradient norm, and
//!   post-step parameters are checked for finiteness. On a trip the
//!   epoch is rolled back to its in-memory start-of-epoch snapshot, the
//!   learning rate is halved (persistently, via
//!   [`TrainReport::lr_scale`]), and the epoch is replayed — up to
//!   [`TrainOptions::max_divergence_retries`] times before the run fails
//!   with a structured [`TrainError::Diverged`] instead of silently
//!   emitting NaN parameters.
//! * **Fault-injection hooks** — test-only kill points
//!   ([`KillPoint::EpochStart`], [`KillPoint::AfterSave`]) and a
//!   per-batch NaN poisoner that exercises the *real* sentinel path.
//!
//! The legacy entry points [`train_plain`] / [`train_apots`] /
//! [`train_apots_with`] are thin wrappers over the same loop with
//! default options.

use apots_nn::layer::Param;
use apots_nn::loss::{
    bce_with_logits, generator_loss_nonsaturating, generator_loss_saturating, mse,
};
use apots_nn::optim::{clip_global_norm, Adam, Optimizer};
use apots_nn::{AdamState, EarlyStopping, StateDict};
use apots_tensor::rng::seeded;
use apots_tensor::{SeededRng, Tensor};
use apots_traffic::TrafficDataset;

use crate::config::{GenLoss, RdatConfig, TrainConfig};
use crate::discriminator::Discriminator;
use crate::encode::{encode_context, encode_features, encode_inputs};
use crate::hotpath;
use crate::persist::CheckpointStore;
use crate::perturb::{self, SpeedBounds};
use crate::predictor::Predictor;
use crate::runtime::{
    config_fingerprint, BatchCtx, KillPoint, TrainCheckpoint, TrainError, TrainOptions,
};
use crate::InferenceMode;

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean MSE of the final-window prediction (the actual target).
    pub mse: f32,
    /// Mean predictor objective (MSE terms + adversarial term).
    pub p_loss: f32,
    /// Mean discriminator BCE (0 for plain training).
    pub d_loss: f32,
}

/// A finished training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Stats per epoch, in order (includes epochs replayed from a
    /// resumed checkpoint, so the report always covers the whole run).
    pub epochs: Vec<EpochStats>,
    /// How many times the divergence sentinel rolled an epoch back.
    pub divergence_rollbacks: usize,
    /// Final learning-rate scale after sentinel halvings (1.0 = never
    /// tripped).
    pub lr_scale: f32,
    /// `Some(n)` if the run resumed from a checkpoint covering `n`
    /// completed epochs.
    pub resumed_at: Option<usize>,
}

impl Default for TrainReport {
    fn default() -> Self {
        Self {
            epochs: Vec::new(),
            divergence_rollbacks: 0,
            lr_scale: 1.0,
            resumed_at: None,
        }
    }
}

impl TrainReport {
    /// Final-epoch MSE, or `None` if no epochs ran. (This used to return
    /// `f32::INFINITY` for an empty report, which callers routinely
    /// mistook for a real — if terrible — measurement.)
    pub fn final_mse(&self) -> Option<f32> {
        self.epochs.last().map(|e| e.mse)
    }
}

/// Accumulates parameter gradients across the α per-window backward passes.
struct GradAccumulator {
    acc: Vec<Tensor>,
}

impl GradAccumulator {
    fn new() -> Self {
        Self { acc: Vec::new() }
    }

    /// Adds the current gradients of `params` into the accumulator.
    fn absorb(&mut self, params: &[Param<'_>]) {
        if self.acc.is_empty() {
            self.acc = params.iter().map(|p| (*p.grad).clone()).collect();
        } else {
            assert_eq!(self.acc.len(), params.len(), "parameter set changed");
            for (a, p) in self.acc.iter_mut().zip(params) {
                a.add_assign_t(p.grad);
            }
        }
    }

    /// Writes the accumulated gradients back into `params` and resets.
    fn restore(&mut self, params: &mut [Param<'_>]) {
        assert_eq!(self.acc.len(), params.len(), "parameter set changed");
        for (a, p) in self.acc.iter().zip(params.iter_mut()) {
            p.grad.data_mut().copy_from_slice(a.data());
        }
        self.acc.clear();
    }
}

/// Epoch batches, shuffled and optionally capped.
fn epoch_batches(
    data: &TrafficDataset,
    config: &TrainConfig,
    rng: &mut SeededRng,
) -> Vec<Vec<usize>> {
    let mut batches = data.train_batches(config.batch_size, rng);
    if let Some(cap) = config.max_train_samples {
        let max_batches = cap.div_ceil(config.batch_size).max(1);
        batches.truncate(max_batches);
    }
    batches
}

/// Builds the discriminator [`train_apots`] uses internally: widths follow
/// the preset implied by the config's sample cap (the Fast widths are
/// ample for α = 12 sequences), seeded independently of the predictor.
pub fn build_discriminator(data: &TrafficDataset, config: &TrainConfig) -> Discriminator {
    let alpha = data.config().alpha;
    let n_roads = data.corridor().n_roads();
    let cond_width = apots_traffic::SampleFeatures::flat_width(n_roads, alpha);
    let hidden = if config.max_train_samples.is_some() {
        crate::config::HyperPreset::Fast.resolve().disc_hidden
    } else {
        crate::config::HyperPreset::Paper.resolve().disc_hidden
    };
    Discriminator::new(
        alpha,
        cond_width,
        hidden,
        config.conditional_discriminator,
        config.seed ^ 0x5EED_D15C,
    )
}

/// Plain (MSE-only) training — the paper's "w/o Adv." column.
///
/// Thin wrapper over [`train_with_options`] with default options; panics
/// on the (structured) failure modes the full API reports as errors.
pub fn train_plain(
    predictor: &mut dyn Predictor,
    data: &TrafficDataset,
    config: &TrainConfig,
) -> TrainReport {
    assert!(
        !config.adversarial,
        "train_plain called with adversarial config"
    );
    match run_training(predictor, None, data, config, &mut TrainOptions::default()) {
        Ok(report) => report,
        Err(e) => panic!("train_plain: {e}"),
    }
}

/// APOTS adversarial training — the paper's "w/ Adv." column.
///
/// Builds the discriminator internally; use [`train_apots_with`] to supply
/// one (e.g. for the conditioning ablation).
pub fn train_apots(
    predictor: &mut dyn Predictor,
    data: &TrafficDataset,
    config: &TrainConfig,
) -> TrainReport {
    let mut disc = build_discriminator(data, config);
    train_apots_with(predictor, &mut disc, data, config)
}

/// APOTS adversarial training with an externally-built discriminator.
pub fn train_apots_with(
    predictor: &mut dyn Predictor,
    disc: &mut Discriminator,
    data: &TrafficDataset,
    config: &TrainConfig,
) -> TrainReport {
    match train_apots_with_options(predictor, disc, data, config, &mut TrainOptions::default()) {
        Ok(report) => report,
        Err(e) => panic!("train_apots_with: {e}"),
    }
}

/// The crash-safe entry point: plain or adversarial training (the config
/// decides; the discriminator is built internally for adversarial runs)
/// with checkpointing, resume, the divergence sentinel, and fault
/// injection per `options`.
///
/// # Errors
/// * [`TrainError::Diverged`] — the sentinel exhausted its retry budget;
/// * [`TrainError::ConfigMismatch`] — resume found a checkpoint produced
///   under a different configuration;
/// * [`TrainError::Corrupt`] / [`TrainError::Io`] — checkpoint decoding
///   or filesystem failures;
/// * [`TrainError::Killed`] — a fault-injection kill point fired.
pub fn train_with_options(
    predictor: &mut dyn Predictor,
    data: &TrafficDataset,
    config: &TrainConfig,
    options: &mut TrainOptions<'_>,
) -> Result<TrainReport, TrainError> {
    if config.adversarial {
        let mut disc = build_discriminator(data, config);
        run_training(predictor, Some(&mut disc), data, config, options)
    } else {
        run_training(predictor, None, data, config, options)
    }
}

/// [`train_with_options`] with an externally-built discriminator (for the
/// conditioning ablation).
///
/// # Errors
/// As [`train_with_options`].
pub fn train_apots_with_options(
    predictor: &mut dyn Predictor,
    disc: &mut Discriminator,
    data: &TrafficDataset,
    config: &TrainConfig,
    options: &mut TrainOptions<'_>,
) -> Result<TrainReport, TrainError> {
    assert!(config.adversarial, "train_apots called with plain config");
    run_training(predictor, Some(disc), data, config, options)
}

/// In-memory start-of-epoch snapshot the divergence sentinel rolls back
/// to. Restoring it (including the RNG stream) and replaying the epoch
/// with a halved learning rate is fully deterministic.
struct EpochSnapshot {
    pred: StateDict,
    p_opt: AdamState,
    disc: Option<StateDict>,
    d_opt: Option<AdamState>,
    rng: (u64, u64),
}

impl EpochSnapshot {
    fn capture(
        predictor: &mut dyn Predictor,
        disc: Option<&mut Discriminator>,
        p_opt: &Adam,
        d_opt: Option<&Adam>,
        rng: &SeededRng,
    ) -> Self {
        Self {
            pred: StateDict::capture_params(&predictor.params_mut()),
            p_opt: p_opt.capture_state(),
            disc: disc.map(|d| StateDict::capture_params(&d.params_mut())),
            d_opt: d_opt.map(Adam::capture_state),
            rng: rng.state(),
        }
    }

    /// Restores the snapshot into the live training state. Cannot fail:
    /// the snapshot was captured from these exact objects.
    fn restore(
        &self,
        predictor: &mut dyn Predictor,
        disc: Option<&mut Discriminator>,
        p_opt: &mut Adam,
        d_opt: Option<&mut Adam>,
        rng: &mut SeededRng,
    ) {
        self.pred
            .restore_params(&mut predictor.params_mut())
            .expect("epoch snapshot restores into the model it was captured from");
        p_opt
            .restore_state(self.p_opt.clone())
            .expect("epoch snapshot restores into the optimizer it was captured from");
        if let (Some(d), Some(s)) = (disc, &self.disc) {
            s.restore_params(&mut d.params_mut())
                .expect("epoch snapshot restores into the discriminator it was captured from");
        }
        if let (Some(o), Some(s)) = (d_opt, &self.d_opt) {
            o.restore_state(s.clone())
                .expect("epoch snapshot restores into the optimizer it was captured from");
        }
        *rng = SeededRng::from_state(self.rng.0, self.rng.1);
    }
}

fn fire_kill(options: &mut TrainOptions<'_>, point: KillPoint) -> bool {
    options.kill_hook.as_mut().is_some_and(|h| h(point))
}

/// `true` when every parameter tensor is finite (checked via the squared
/// norm, which any NaN/Inf contaminates).
fn params_finite(params: &[Param<'_>]) -> bool {
    params.iter().all(|p| p.value.norm_sq().is_finite())
}

/// Injects a NaN into the first gradient slot — the poison hook's payload,
/// placed *before* the sentinel checks so the real detection path runs.
fn poison_grads(params: &mut [Param<'_>]) {
    if let Some(p) = params.first_mut() {
        if let Some(g) = p.grad.data_mut().first_mut() {
            *g = f32::NAN;
        }
    }
}

/// The unified training loop. `disc: None` is plain MSE training;
/// `Some(_)` is the APOTS adversarial loop (with MSE-only warm-up).
fn run_training(
    predictor: &mut dyn Predictor,
    mut disc: Option<&mut Discriminator>,
    data: &TrafficDataset,
    config: &TrainConfig,
    options: &mut TrainOptions<'_>,
) -> Result<TrainReport, TrainError> {
    if let Some(d) = disc.as_deref_mut() {
        let alpha = data.config().alpha;
        assert_eq!(d.seq_width(), alpha, "discriminator width must equal α");
    }
    let run_span = apots_obs::span("train.run", true);
    let fingerprint = config_fingerprint(predictor.kind(), config);
    let store = match &options.checkpoint_dir {
        Some(dir) => Some(CheckpointStore::open(dir.clone()).map_err(TrainError::Io)?),
        None => None,
    };
    let save_every = options.save_every.max(1);

    let mut p_opt = Adam::new(config.learning_rate);
    let mut d_opt = if disc.is_some() {
        Some(Adam::new(config.learning_rate))
    } else {
        None
    };
    let mut rng = seeded(config.seed);
    let mut report = TrainReport::default();
    let mut stopper = config
        .early_stopping
        .map(|(patience, delta)| EarlyStopping::new(patience, delta));
    let mut lr_scale = 1.0f32;
    let mut start_epoch = 0usize;
    let mut stopped = false;

    // --- Resume from the newest verifiable checkpoint, if asked. --------
    if options.resume {
        if let Some(store) = &store {
            if let Some((payload, _source)) = store.load().map_err(TrainError::Corrupt)? {
                let ck = TrainCheckpoint::from_json(&payload).map_err(TrainError::Corrupt)?;
                if ck.fingerprint != fingerprint {
                    return Err(TrainError::ConfigMismatch {
                        expected: fingerprint,
                        found: ck.fingerprint,
                    });
                }
                if ck.predictor_kind != predictor.kind().label() {
                    return Err(TrainError::Corrupt(format!(
                        "checkpoint is for predictor kind {:?}, run uses {:?}",
                        ck.predictor_kind,
                        predictor.kind().label()
                    )));
                }
                ck.predictor
                    .restore_params(&mut predictor.params_mut())
                    .map_err(|e| TrainError::Corrupt(format!("predictor: {e}")))?;
                p_opt
                    .restore_state(ck.p_opt.clone())
                    .map_err(|e| TrainError::Corrupt(format!("p_opt: {e}")))?;
                match (disc.as_deref_mut(), &ck.discriminator) {
                    (Some(d), Some(s)) => s
                        .restore_params(&mut d.params_mut())
                        .map_err(|e| TrainError::Corrupt(format!("discriminator: {e}")))?,
                    (Some(_), None) => {
                        return Err(TrainError::Corrupt(
                            "adversarial run but checkpoint has no discriminator state".into(),
                        ))
                    }
                    (None, Some(_)) => {
                        return Err(TrainError::Corrupt(
                            "plain run but checkpoint carries discriminator state".into(),
                        ))
                    }
                    (None, None) => {}
                }
                match (&mut d_opt, ck.d_opt) {
                    (Some(o), Some(s)) => o
                        .restore_state(s)
                        .map_err(|e| TrainError::Corrupt(format!("d_opt: {e}")))?,
                    (Some(_), None) => {
                        return Err(TrainError::Corrupt(
                            "adversarial run but checkpoint has no discriminator optimizer".into(),
                        ))
                    }
                    (None, Some(_)) => {
                        return Err(TrainError::Corrupt(
                            "plain run but checkpoint carries a discriminator optimizer".into(),
                        ))
                    }
                    (None, None) => {}
                }
                if let (Some(s), Some((best, stale))) = (&mut stopper, ck.stopper) {
                    s.restore(best, stale);
                }
                rng = SeededRng::from_state(ck.rng_state.0, ck.rng_state.1);
                report.epochs = ck.stats;
                report.divergence_rollbacks = ck.rollbacks;
                report.resumed_at = Some(ck.epoch);
                lr_scale = ck.lr_scale;
                start_epoch = ck.epoch;
                stopped = ck.stopped;
            }
        }
    }

    // --- The epoch loop. -------------------------------------------------
    for epoch in start_epoch..config.epochs {
        if stopped {
            break;
        }
        if fire_kill(options, KillPoint::EpochStart(epoch)) {
            return Err(TrainError::Killed { epoch });
        }

        let epoch_span = apots_obs::span("train.epoch", true);
        let snapshot =
            EpochSnapshot::capture(predictor, disc.as_deref_mut(), &p_opt, d_opt.as_ref(), &rng);
        let mut attempt = 0usize;
        let stats = loop {
            let lr = config.learning_rate * config.lr_schedule.factor(epoch) * lr_scale;
            p_opt.set_learning_rate(lr);
            if let Some(o) = &mut d_opt {
                o.set_learning_rate(lr);
            }
            match run_epoch(
                predictor,
                disc.as_deref_mut(),
                data,
                config,
                &mut rng,
                epoch,
                attempt,
                &mut p_opt,
                &mut d_opt,
                options,
            ) {
                Ok(stats) => break stats,
                Err(batch) => {
                    report.divergence_rollbacks += 1;
                    apots_obs::metrics::TRAIN_ROLLBACKS.bump();
                    apots_obs::value2("sentinel.rollback", true, epoch as f64, batch as f64);
                    attempt += 1;
                    if attempt > options.max_divergence_retries {
                        return Err(TrainError::Diverged {
                            epoch,
                            attempts: attempt,
                        });
                    }
                    snapshot.restore(
                        predictor,
                        disc.as_deref_mut(),
                        &mut p_opt,
                        d_opt.as_mut(),
                        &mut rng,
                    );
                    lr_scale *= 0.5;
                    eprintln!(
                        "warning: non-finite values at epoch {epoch} batch {batch}; \
                         rolled back and halved the learning rate (retry {attempt}/{})",
                        options.max_divergence_retries
                    );
                }
            }
        };
        report.epochs.push(stats);
        report.lr_scale = lr_scale;
        apots_obs::value2("epoch.lr_scale", true, epoch as f64, f64::from(lr_scale));
        if let Some(s) = &mut stopper {
            if s.update(stats.mse) {
                stopped = true;
                apots_obs::value("earlystop.stop", true, (epoch + 1) as f64);
            }
        }

        // --- Durable checkpoint at the epoch boundary. -------------------
        let completed = epoch + 1;
        if let Some(store) = &store {
            if completed % save_every == 0 || completed == config.epochs || stopped {
                let ck = TrainCheckpoint {
                    epoch: completed,
                    stopped,
                    lr_scale,
                    rollbacks: report.divergence_rollbacks,
                    fingerprint,
                    rng_state: rng.state(),
                    predictor_kind: predictor.kind().label().to_string(),
                    predictor: StateDict::capture_params(&predictor.params_mut()),
                    p_opt: p_opt.capture_state(),
                    discriminator: disc
                        .as_deref_mut()
                        .map(|d| StateDict::capture_params(&d.params_mut())),
                    d_opt: d_opt.as_ref().map(Adam::capture_state),
                    stopper: stopper.as_ref().map(EarlyStopping::state),
                    stats: report.epochs.clone(),
                };
                store.save(ck.to_json()).map_err(TrainError::Io)?;
                if fire_kill(options, KillPoint::AfterSave(completed)) {
                    return Err(TrainError::Killed { epoch: completed });
                }
            }
        }

        // Epoch boundary: close the span, then drain the per-thread event
        // rings and rewrite the trace sink. This is the designated drain
        // point — strictly outside the `hotpath` probe windows, so traced
        // steady-state epochs stay allocation-free on the hot path.
        drop(epoch_span);
        apots_obs::drain_and_flush();
    }
    report.lr_scale = lr_scale;
    drop(run_span);
    apots_obs::drain_and_flush();
    Ok(report)
}

/// Runs one epoch over shuffled batches. Returns the index of the first
/// batch where the sentinel detected non-finite values, or the averaged
/// epoch stats on success.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    predictor: &mut dyn Predictor,
    mut disc: Option<&mut Discriminator>,
    data: &TrafficDataset,
    config: &TrainConfig,
    rng: &mut SeededRng,
    epoch: usize,
    attempt: usize,
    p_opt: &mut Adam,
    d_opt: &mut Option<Adam>,
    options: &mut TrainOptions<'_>,
) -> Result<EpochStats, usize> {
    let mut sums = (0.0f64, 0.0f64, 0.0f64, 0.0f64); // (mse, p_loss, d_loss, grad_norm)
    let mut n_batches = 0usize;
    let warming_up = epoch < config.adv_warmup_epochs;
    // RDAT's probe envelope is pure dataset geometry — hoisted out of the
    // batch loop so the robust step allocates no per-batch bound tables.
    let bounds = config.rdat.map(|_| SpeedBounds::of(data));

    for (bi, batch) in epoch_batches(data, config, rng).into_iter().enumerate() {
        let poisoned = options.poison_hook.as_mut().is_some_and(|h| {
            h(BatchCtx {
                epoch,
                batch: bi,
                attempt,
                rdat: false,
            })
        });
        let ok = match disc.as_deref_mut() {
            Some(d) if !warming_up => adversarial_batch(
                predictor,
                d,
                data,
                &batch,
                config,
                p_opt,
                d_opt
                    .as_mut()
                    .expect("adversarial runs carry a discriminator optimizer"),
                poisoned,
                &mut sums,
            ),
            _ => plain_batch(predictor, data, &batch, config, p_opt, poisoned, &mut sums),
        };
        if !ok {
            return Err(bi);
        }
        if let (Some(rdat), Some(bounds)) = (&config.rdat, &bounds) {
            let rdat_poisoned = options.poison_hook.as_mut().is_some_and(|h| {
                h(BatchCtx {
                    epoch,
                    batch: bi,
                    attempt,
                    rdat: true,
                })
            });
            if !rdat_step(
                predictor,
                data,
                &batch,
                config,
                rdat,
                bounds,
                rng,
                p_opt,
                rdat_poisoned,
            ) {
                return Err(bi);
            }
        }
        n_batches += 1;
    }

    let n = n_batches.max(1) as f64;
    let stats = EpochStats {
        mse: (sums.0 / n) as f32,
        p_loss: (sums.1 / n) as f32,
        d_loss: (sums.2 / n) as f32,
    };
    // Per-epoch telemetry: deterministic (bit-identical training for any
    // APOTS_THREADS makes these thread-count-invariant), so they are part
    // of the golden trace hash.
    if apots_obs::enabled() {
        let e = epoch as f64;
        apots_obs::value2("epoch.mse", true, e, f64::from(stats.mse));
        apots_obs::value2("epoch.p_loss", true, e, f64::from(stats.p_loss));
        apots_obs::value2("epoch.d_loss", true, e, f64::from(stats.d_loss));
        apots_obs::value2("epoch.grad_norm", true, e, sums.3 / n);
    }
    Ok(stats)
}

/// One plain-MSE batch (also the adversarial warm-up batch). Returns
/// `false` when the sentinel detects non-finite values.
fn plain_batch(
    predictor: &mut dyn Predictor,
    data: &TrafficDataset,
    batch: &[usize],
    config: &TrainConfig,
    p_opt: &mut Adam,
    poisoned: bool,
    sums: &mut (f64, f64, f64, f64),
) -> bool {
    let (input, targets) = encode_inputs(predictor.kind(), data, batch, config.mask);
    let loss = {
        // Forward → loss → backward is the measured kernel hot path
        // (DESIGN.md §10): steady-state allocation-free by contract.
        let _hp = hotpath::guard();
        let out = predictor.forward(&input, true);
        let (loss, grad) = mse(&out, &targets);
        predictor.backward(&grad);
        loss
    };
    let mut params = predictor.params_mut();
    if poisoned {
        poison_grads(&mut params);
    }
    let grad_norm = clip_global_norm(&mut params, config.grad_clip);
    if !loss.is_finite() || !grad_norm.is_finite() {
        return false;
    }
    p_opt.step(params);
    if !params_finite(&predictor.params_mut()) {
        return false;
    }
    if apots_obs::enabled() {
        apots_obs::value("batch.mse", true, f64::from(loss));
        apots_obs::value("batch.grad_norm", true, f64::from(grad_norm));
    }
    sums.0 += f64::from(loss);
    sums.1 += f64::from(loss);
    sums.3 += f64::from(grad_norm);
    true
}

/// Per-sample squared errors of a prediction against its targets
/// (both `[b, 1]`).
fn per_sample_sq_err(out: &Tensor, targets: &Tensor) -> Vec<f32> {
    (0..out.rows())
        .map(|i| {
            let d = out.at2(i, 0) - targets.at2(i, 0);
            d * d
        })
        .collect()
}

/// One RDAT robust step (Liu et al.): probes the batch with worst-of-K
/// random θ-bounded speed perturbations, reweights each sample by how
/// much the worst probe degraded it, and takes one extra MSE step on the
/// perturbed batch. Returns `false` when the sentinel detects non-finite
/// values — the same contract as the main batch steps, so the rollback
/// machinery covers the defense too.
///
/// The probe RNG is the epoch stream: every draw is captured by the
/// epoch snapshot and the durable checkpoint, so RDAT runs resume
/// bit-identically through the PR-2 machinery with no extra state.
#[allow(clippy::too_many_arguments)]
fn rdat_step(
    predictor: &mut dyn Predictor,
    data: &TrafficDataset,
    batch: &[usize],
    config: &TrainConfig,
    rdat: &RdatConfig,
    bounds: &SpeedBounds,
    rng: &mut SeededRng,
    p_opt: &mut Adam,
    poisoned: bool,
) -> bool {
    use apots_tensor::rng::Rng;
    let b = batch.len();
    let clean: Vec<_> = batch
        .iter()
        .map(|&t| data.features(t, config.mask))
        .collect();
    let per = clean.first().map_or(0, perturb::delta_len);
    if per == 0 {
        return true;
    }

    // Clean per-sample reference loss (no grad).
    let (clean_in, targets) = encode_features(predictor.kind(), &clean);
    let clean_err = {
        let _hp = hotpath::guard();
        let out = predictor.forward_infer(&clean_in, InferenceMode::Exact);
        per_sample_sq_err(&out, &targets)
    };

    // Worst-of-K probes: per *sample*, keep the deltas of the probe that
    // hurt it most. Deltas are drawn sample-major, so each sample's slice
    // is contiguous and can be copied independently.
    let mut perturbed = clean.clone();
    let mut worst_err = clean_err.clone();
    let mut worst_deltas = vec![0.0f32; per * b];
    let mut probe_deltas = vec![0.0f32; per * b];
    for _ in 0..rdat.probes {
        for d in probe_deltas.iter_mut() {
            *d = rng.random_range(-1.0f32..1.0);
        }
        perturb::apply_speed_deltas(
            &mut perturbed,
            &clean,
            &probe_deltas,
            rdat.theta,
            config.mask,
            bounds,
        );
        let (input, _) = encode_features(predictor.kind(), &perturbed);
        let err = {
            let _hp = hotpath::guard();
            let out = predictor.forward_infer(&input, InferenceMode::Exact);
            per_sample_sq_err(&out, &targets)
        };
        for (i, &e) in err.iter().enumerate() {
            if e > worst_err[i] {
                worst_err[i] = e;
                worst_deltas[i * per..(i + 1) * per]
                    .copy_from_slice(&probe_deltas[i * per..(i + 1) * per]);
            }
        }
    }

    // Vulnerability reweighting: w_i ∝ how much the worst probe opened
    // the loss gap, capped so a single fragile sample cannot dominate.
    let gaps: Vec<f32> = worst_err
        .iter()
        .zip(&clean_err)
        .map(|(&w, &c)| (w - c).max(0.0))
        .collect();
    let mean_gap = gaps.iter().sum::<f32>() / b.max(1) as f32;
    let weights: Vec<f32> = gaps
        .iter()
        .map(|&g| {
            if mean_gap > 0.0 {
                (g / mean_gap).min(rdat.weight_cap)
            } else {
                1.0
            }
        })
        .collect();

    // One extra MSE step on the per-sample-worst perturbed batch, each
    // sample's gradient scaled by rdat.weight · w_i.
    perturb::apply_speed_deltas(
        &mut perturbed,
        &clean,
        &worst_deltas,
        rdat.theta,
        config.mask,
        bounds,
    );
    let (input, _) = encode_features(predictor.kind(), &perturbed);
    let loss = {
        let _hp = hotpath::guard();
        let out = predictor.forward(&input, true);
        let (loss, mut grad) = mse(&out, &targets);
        for (i, &w) in weights.iter().enumerate() {
            let g = grad.at2(i, 0) * rdat.weight * w;
            grad.set2(i, 0, g);
        }
        predictor.backward(&grad);
        loss
    };
    let mut params = predictor.params_mut();
    if poisoned {
        poison_grads(&mut params);
    }
    let grad_norm = clip_global_norm(&mut params, config.grad_clip);
    if !loss.is_finite() || !grad_norm.is_finite() || !mean_gap.is_finite() {
        return false;
    }
    p_opt.step(params);
    if !params_finite(&predictor.params_mut()) {
        return false;
    }
    apots_obs::metrics::RDAT_STEPS.bump();
    if apots_obs::enabled() {
        apots_obs::value("rdat.gap", true, f64::from(mean_gap));
        apots_obs::value("rdat.loss", true, f64::from(loss));
    }
    true
}

/// One full adversarial batch (D step + P step, Eq 1/2/4). Returns
/// `false` when the sentinel detects non-finite values in either model.
#[allow(clippy::too_many_arguments)]
fn adversarial_batch(
    predictor: &mut dyn Predictor,
    disc: &mut Discriminator,
    data: &TrafficDataset,
    batch: &[usize],
    config: &TrainConfig,
    p_opt: &mut Adam,
    d_opt: &mut Adam,
    poisoned: bool,
    sums: &mut (f64, f64, f64, f64),
) -> bool {
    let alpha = data.config().alpha;
    let b = batch.len();

    // --- Pass A: predict the α-step sequence Ŝ. -------------------------
    // Window k ends at base time t − (α−1−k); its prediction is ŝ at
    // t − (α−1−k) + β, so together they form Ŝ_{t−α+β+1:t+β}.
    let windows: Vec<Vec<usize>> = (0..alpha)
        .map(|k| batch.iter().map(|&t| t - (alpha - 1 - k)).collect())
        .collect();
    let mut fake_seq = Tensor::zeros(&[b, alpha]);
    let mut window_targets = Vec::with_capacity(alpha);
    for (k, w) in windows.iter().enumerate() {
        let (input, targets) = encode_inputs(predictor.kind(), data, w, config.mask);
        {
            let _hp = hotpath::guard();
            let out = predictor.forward(&input, true);
            for bi in 0..b {
                fake_seq.set2(bi, k, out.at2(bi, 0));
            }
        }
        window_targets.push(targets);
    }
    let (real_seq, cond) = encode_context(data, batch, config.mask);

    // --- D step: maximise J_D (Eq 2/4). ---------------------------------
    // Real rows on top, fake rows below — row-major concatenation is a
    // straight copy of each source tensor's data (same values as the old
    // per-row `from_rows` construction, without the row Vecs).
    let seq_all = Tensor::build(&[2 * b, alpha], |d| {
        d[..b * alpha].copy_from_slice(real_seq.data());
        d[b * alpha..].copy_from_slice(fake_seq.data());
    });
    let cw = cond.cols();
    let cond_all = Tensor::build(&[2 * b, cw], |d| {
        d[..b * cw].copy_from_slice(cond.data());
        d[b * cw..].copy_from_slice(cond.data());
    });
    // Labels: 1 for the b real rows, 0 for the b fake rows (`build` hands
    // out a zeroed buffer).
    let labels = Tensor::build(&[2 * b, 1], |d| {
        d[..b].fill(1.0);
    });

    let d_loss = {
        let _hp = hotpath::guard();
        let logits = disc.forward(&seq_all, &cond_all, true);
        let (d_loss, dgrad) = bce_with_logits(&logits, &labels);
        let _ = disc.backward(&dgrad);
        d_loss
    };
    let mut d_params = disc.params_mut();
    let d_norm = clip_global_norm(&mut d_params, config.grad_clip);
    if !d_loss.is_finite() || !d_norm.is_finite() {
        return false;
    }
    d_opt.step(d_params);

    // --- P step: minimise J_P (Eq 1/4). ---------------------------------
    // Adversarial term through the (frozen-this-step) D.
    let (adv_loss, dseq) = {
        let _hp = hotpath::guard();
        let logits_fake = disc.forward(&fake_seq, &cond, true);
        let (raw_adv_loss, mut dlogits) = match config.gen_loss {
            GenLoss::Saturating => generator_loss_saturating(&logits_fake),
            GenLoss::NonSaturating => generator_loss_nonsaturating(&logits_fake),
        };
        let adv_loss = config.adv_weight * raw_adv_loss;
        dlogits.scale_in_place(config.adv_weight);
        (adv_loss, disc.backward(&dlogits)) // ∂(λ·L_adv)/∂Ŝ, [b, α]
    };

    let mut acc = GradAccumulator::new();
    let mut mse_final = 0.0f32;
    let mut mse_sum = 0.0f32;
    for (k, w) in windows.iter().enumerate() {
        let (input, _) = encode_inputs(predictor.kind(), data, w, config.mask);
        let m = {
            let _hp = hotpath::guard();
            let out = predictor.forward(&input, true);
            let (m, mgrad) = mse(&out, &window_targets[k]);
            let adv_col = Tensor::build(&[b, 1], |d| {
                for (bi, dst) in d.iter_mut().enumerate() {
                    *dst = dseq.at2(bi, k);
                }
            });
            let total_grad = mgrad.add(&adv_col);
            predictor.backward(&total_grad);
            m
        };
        acc.absorb(&predictor.params_mut());
        mse_sum += m;
        if k == alpha - 1 {
            mse_final = m;
        }
    }
    let mut p_params = predictor.params_mut();
    acc.restore(&mut p_params);
    if poisoned {
        poison_grads(&mut p_params);
    }
    let p_norm = clip_global_norm(&mut p_params, config.grad_clip);
    if !(mse_sum + adv_loss).is_finite() || !p_norm.is_finite() {
        return false;
    }
    p_opt.step(p_params);
    if !params_finite(&predictor.params_mut()) || !params_finite(&disc.params_mut()) {
        return false;
    }

    if apots_obs::enabled() {
        apots_obs::value("batch.mse", true, f64::from(mse_final));
        apots_obs::value("batch.adv_loss", true, f64::from(adv_loss));
        apots_obs::value("batch.d_loss", true, f64::from(d_loss));
        apots_obs::value("batch.grad_norm", true, f64::from(p_norm));
        apots_obs::value("batch.d_grad_norm", true, f64::from(d_norm));
    }
    sums.0 += f64::from(mse_final);
    sums.1 += f64::from(mse_sum + adv_loss);
    sums.2 += f64::from(d_loss);
    sums.3 += f64::from(p_norm);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HyperPreset, PredictorKind};
    use crate::predictor::build_predictor;
    use apots_traffic::calendar::Calendar;
    use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

    fn dataset() -> TrafficDataset {
        let cal = Calendar::new(8, 6, vec![]);
        TrafficDataset::new(
            Corridor::generate_with_calendar(SimConfig::default(), cal),
            DataConfig::default(),
        )
    }

    fn tiny_config(adversarial: bool) -> TrainConfig {
        let mut c = if adversarial {
            TrainConfig::fast_adversarial(FeatureMask::BOTH)
        } else {
            TrainConfig::fast_plain(FeatureMask::BOTH)
        };
        c.epochs = 2;
        c.adv_warmup_epochs = 0;
        c.max_train_samples = Some(128);
        c.batch_size = 32;
        c
    }

    #[test]
    fn plain_training_reduces_loss() {
        let ds = dataset();
        let mut cfg = tiny_config(false);
        cfg.epochs = 5;
        cfg.max_train_samples = Some(512);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 1);
        let report = train_plain(p.as_mut(), &ds, &cfg);
        assert_eq!(report.epochs.len(), 5);
        let first = report.epochs[0].mse;
        let last = report.final_mse().unwrap();
        assert!(last < first, "MSE {first} → {last}");
        assert!(last.is_finite());
        assert_eq!(report.divergence_rollbacks, 0);
        assert_eq!(report.lr_scale, 1.0);
    }

    #[test]
    fn adversarial_training_runs_and_is_finite() {
        let ds = dataset();
        let cfg = tiny_config(true);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 2);
        let report = train_apots(p.as_mut(), &ds, &cfg);
        assert_eq!(report.epochs.len(), 2);
        for e in &report.epochs {
            assert!(e.mse.is_finite());
            assert!(e.p_loss.is_finite());
            assert!(e.d_loss.is_finite());
            assert!(e.d_loss > 0.0, "discriminator loss should be positive BCE");
        }
    }

    #[test]
    fn adversarial_training_with_nonsaturating_loss() {
        let ds = dataset();
        let mut cfg = tiny_config(true);
        cfg.gen_loss = crate::config::GenLoss::NonSaturating;
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 3);
        let report = train_apots(p.as_mut(), &ds, &cfg);
        assert!(report.final_mse().unwrap().is_finite());
    }

    #[test]
    fn empty_report_has_no_final_mse() {
        assert_eq!(TrainReport::default().final_mse(), None);
    }

    #[test]
    fn grad_accumulator_sums_and_restores() {
        let mut w = Tensor::zeros(&[2]);
        let mut g = Tensor::from_vec(vec![1.0, 2.0]);
        let mut acc = GradAccumulator::new();
        {
            let params = vec![Param {
                value: &mut w,
                grad: &mut g,
            }];
            acc.absorb(&params);
        }
        g.data_mut().copy_from_slice(&[10.0, 20.0]);
        {
            let params = vec![Param {
                value: &mut w,
                grad: &mut g,
            }];
            acc.absorb(&params);
        }
        g.fill_zero();
        {
            let mut params = vec![Param {
                value: &mut w,
                grad: &mut g,
            }];
            acc.restore(&mut params);
        }
        assert_eq!(g.data(), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "adversarial config")]
    fn plain_rejects_adversarial_config() {
        let ds = dataset();
        let cfg = tiny_config(true);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 1);
        let _ = train_plain(p.as_mut(), &ds, &cfg);
    }

    #[test]
    fn sample_cap_limits_batches() {
        let ds = dataset();
        let mut cfg = tiny_config(false);
        cfg.max_train_samples = Some(64);
        cfg.batch_size = 32;
        let mut rng = apots_tensor::rng::seeded(1);
        let batches = epoch_batches(&ds, &cfg, &mut rng);
        assert_eq!(batches.len(), 2);
    }

    // --- Sentinel & fault-injection tests. ------------------------------

    #[test]
    fn sentinel_rolls_back_and_recovers_from_a_poisoned_batch() {
        let ds = dataset();
        let cfg = tiny_config(false);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 7);
        let mut options = TrainOptions {
            // Poison epoch 1, batch 0, first attempt only: the replay
            // with the halved learning rate must run clean.
            poison_hook: Some(Box::new(|c: BatchCtx| {
                c.epoch == 1 && c.batch == 0 && c.attempt == 0
            })),
            ..TrainOptions::default()
        };
        let report = train_with_options(p.as_mut(), &ds, &cfg, &mut options).unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.divergence_rollbacks, 1);
        assert_eq!(report.lr_scale, 0.5);
        for e in &report.epochs {
            assert!(e.mse.is_finite());
        }
        // The recovered model itself must be finite.
        assert!(params_finite(&p.params_mut()));
    }

    #[test]
    fn sentinel_gives_up_after_the_retry_budget() {
        let ds = dataset();
        let cfg = tiny_config(false);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 8);
        let mut options = TrainOptions {
            max_divergence_retries: 2,
            // Poison every first batch of epoch 0, on every attempt.
            poison_hook: Some(Box::new(|c: BatchCtx| c.epoch == 0 && c.batch == 0)),
            ..TrainOptions::default()
        };
        let err = train_with_options(p.as_mut(), &ds, &cfg, &mut options).unwrap_err();
        assert_eq!(
            err,
            TrainError::Diverged {
                epoch: 0,
                attempts: 3
            }
        );
    }

    #[test]
    fn sentinel_protects_the_adversarial_loop_too() {
        let ds = dataset();
        let cfg = tiny_config(true);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 9);
        let mut options = TrainOptions {
            poison_hook: Some(Box::new(|c: BatchCtx| {
                c.epoch == 0 && c.batch == 1 && c.attempt == 0
            })),
            ..TrainOptions::default()
        };
        let report = train_with_options(p.as_mut(), &ds, &cfg, &mut options).unwrap();
        assert_eq!(report.divergence_rollbacks, 1);
        assert!(report.final_mse().unwrap().is_finite());
        assert!(params_finite(&p.params_mut()));
    }

    #[test]
    fn kill_hook_stops_the_run_with_a_structured_error() {
        let ds = dataset();
        let cfg = tiny_config(false);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 10);
        let mut options = TrainOptions {
            kill_hook: Some(Box::new(|point| point == KillPoint::EpochStart(1))),
            ..TrainOptions::default()
        };
        let err = train_with_options(p.as_mut(), &ds, &cfg, &mut options).unwrap_err();
        assert_eq!(err, TrainError::Killed { epoch: 1 });
    }
}
