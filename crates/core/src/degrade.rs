//! Sensor-outage degradation curves: how much accuracy each predictor
//! kind loses as loop detectors go dark.
//!
//! The pipeline trains every kind **once** on clean data, then evaluates
//! it against progressively harsher [`OutagePlan`]s whose input windows
//! are imputed (LOCF + segment mean, see `apots_traffic::outage`). The
//! ground truth side of evaluation is never imputed — targets and
//! previous-interval speeds always come from the true series, so the
//! curve measures genuine degradation and not a moved goalpost.
//!
//! Fairness contract: all four kinds at a given rate share the *same*
//! outage plan, so curve differences are attributable to the
//! architecture, not to schedule luck. Like the robustness report, the
//! JSON is built from `apots-serde` maps only and is a pure function of
//! the config — byte stability is pinned by a golden FNV-1a hash in
//! `tests/outage_golden.rs`.

use apots_serde::{Json, Map};
use apots_traffic::{FeatureMask, OutageConfig, OutagePlan, OutageView, TrafficDataset};

use crate::config::{HyperPreset, PredictorKind, TrainConfig};
use crate::encode::encode_inputs_with_outage;
use crate::eval::{summarize, EvalResult};
use crate::predictor::{build_predictor, Predictor};
use crate::runtime::TrainOptions;
use crate::trainer::train_with_options;
use crate::InferenceMode;

/// Evaluation batch size (forward-only; mirrors `eval::EVAL_BATCH`).
const EVAL_BATCH: usize = 256;

/// Parameters of one degradation-report run.
#[derive(Debug, Clone)]
pub struct DegradeConfig {
    /// Architecture widths for every trained model.
    pub preset: HyperPreset,
    /// Master seed: training seeds, model init seeds and outage plan
    /// seeds all derive from it.
    pub seed: u64,
    /// Training epochs per kind (clean data, plain MSE).
    pub epochs: usize,
    /// Per-epoch sample cap for training.
    pub max_train_samples: Option<usize>,
    /// Held-out samples evaluated per rate (a deterministic prefix of
    /// the test split).
    pub eval_samples: usize,
    /// Outage rates swept, each its own shared plan. Must start at a
    /// clean baseline for the degradation deltas to be meaningful.
    pub rates: Vec<f64>,
    /// Mean outage window length in intervals.
    pub mean_duration: usize,
    /// Feature groups visible to the models.
    pub mask: FeatureMask,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        Self {
            preset: HyperPreset::Fast,
            seed: 2024,
            epochs: 6,
            max_train_samples: Some(512),
            eval_samples: 64,
            rates: vec![0.0, 0.05, 0.15, 0.30],
            mean_duration: 6,
            mask: FeatureMask::BOTH,
        }
    }
}

/// [`crate::eval::evaluate`] through a sensor outage: the predictor sees
/// imputed input windows while targets stay ground truth.
pub fn evaluate_with_outage(
    predictor: &dyn Predictor,
    data: &TrafficDataset,
    mask: FeatureMask,
    samples: &[usize],
    view: &OutageView,
) -> EvalResult {
    assert!(
        !samples.is_empty(),
        "evaluate_with_outage: empty sample set"
    );
    let norm = data.speed_norm();
    let mut predictions = Vec::with_capacity(samples.len());
    let mut observations = Vec::with_capacity(samples.len());
    let mut previous = Vec::with_capacity(samples.len());

    for chunk in samples.chunks(EVAL_BATCH) {
        let (input, _) = encode_inputs_with_outage(predictor.kind(), data, chunk, mask, view);
        let out = predictor.forward_infer(&input, InferenceMode::Exact);
        for (i, &t) in chunk.iter().enumerate() {
            let tau = data.target_time(t);
            predictions.push(norm.denormalize(out.at2(i, 0)));
            observations.push(data.raw_target_speed(tau));
            previous.push(data.raw_target_speed(tau - 1));
        }
    }

    summarize(predictions, observations, previous)
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Runs the sweep: 4 kinds × every rate in `cfg.rates`.
///
/// Deterministic for a fixed `cfg` and dataset: bit-identical bytes
/// across re-runs and across `APOTS_THREADS` settings.
pub fn degradation_report(data: &TrafficDataset, cfg: &DegradeConfig) -> Json {
    let _span = apots_obs::span("degrade.report", true);
    assert!(
        !cfg.rates.is_empty(),
        "degradation_report: empty rate sweep"
    );
    let samples: Vec<usize> = data
        .test_samples()
        .iter()
        .copied()
        .take(cfg.eval_samples.max(1))
        .collect();

    // One plan per rate, shared by all kinds at that rate.
    let corridor = data.corridor();
    let plans: Vec<(f64, OutagePlan)> = cfg
        .rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let plan = OutagePlan::generate(
                corridor.n_roads(),
                corridor.intervals(),
                &OutageConfig {
                    rate,
                    mean_duration: cfg.mean_duration,
                    seed: cfg.seed ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9)),
                },
            );
            (rate, plan)
        })
        .collect();
    let views: Vec<OutageView> = plans
        .iter()
        .map(|(_, plan)| OutageView::new(corridor, plan))
        .collect();

    let mut kinds = Vec::new();
    for kind in PredictorKind::all() {
        let tc = TrainConfig {
            epochs: cfg.epochs,
            max_train_samples: cfg.max_train_samples,
            seed: cfg.seed,
            ..TrainConfig::plain(cfg.mask)
        };
        let init_seed = cfg.seed ^ kind.label().as_bytes()[0] as u64;
        let mut p = build_predictor(kind, cfg.preset, data, init_seed);
        train_with_options(p.as_mut(), data, &tc, &mut TrainOptions::default())
            .expect("degradation-report training run");

        let mut curve = Vec::new();
        for ((rate, plan), view) in plans.iter().zip(&views) {
            let res = evaluate_with_outage(p.as_mut(), data, cfg.mask, &samples, view);
            let mut m = Map::new();
            m.insert("rate".into(), num(*rate));
            m.insert("realized_rate".into(), num(plan.outage_fraction()));
            m.insert("mae".into(), num(f64::from(res.overall.mae)));
            m.insert("rmse".into(), num(f64::from(res.overall.rmse)));
            m.insert("mape".into(), num(f64::from(res.overall.mape)));
            curve.push(Json::Obj(m));
        }
        let mut m = Map::new();
        m.insert("kind".into(), Json::Str(kind.label().into()));
        m.insert("curve".into(), Json::Arr(curve));
        kinds.push(Json::Obj(m));
    }

    let mut root = Map::new();
    root.insert(
        "schema".into(),
        Json::Str("apots-outage-degradation".into()),
    );
    root.insert("seed".into(), num(cfg.seed as f64));
    root.insert("samples".into(), num(samples.len() as f64));
    root.insert("mean_duration".into(), num(cfg.mean_duration as f64));
    root.insert(
        "rates".into(),
        Json::Arr(cfg.rates.iter().map(|&r| num(r)).collect()),
    );
    // Nominal rates undershoot when windows truncate at the horizon
    // edge; the realized fraction is a property of the shared per-rate
    // plan (kind-independent), so it is reported once at the top level
    // alongside the nominal sweep.
    root.insert(
        "realized_rates".into(),
        Json::Arr(
            plans
                .iter()
                .map(|(_, plan)| num(plan.outage_fraction()))
                .collect(),
        ),
    );
    root.insert("kinds".into(), Json::Arr(kinds));
    Json::Obj(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apots_traffic::calendar::Calendar;
    use apots_traffic::{Corridor, DataConfig, SimConfig};

    fn dataset() -> TrafficDataset {
        let cal = Calendar::new(10, 6, vec![]);
        TrafficDataset::new(
            Corridor::generate_with_calendar(SimConfig::default(), cal),
            DataConfig::default(),
        )
    }

    #[test]
    fn zero_rate_view_matches_clean_evaluation() {
        let ds = dataset();
        let plan = OutagePlan::generate(
            ds.corridor().n_roads(),
            ds.corridor().intervals(),
            &OutageConfig {
                rate: 0.0,
                ..OutageConfig::default()
            },
        );
        let view = OutageView::new(ds.corridor(), &plan);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 1);
        let samples: Vec<usize> = ds.test_samples().iter().copied().take(32).collect();
        let clean = crate::eval::evaluate(p.as_mut(), &ds, FeatureMask::BOTH, &samples);
        let outed = evaluate_with_outage(p.as_mut(), &ds, FeatureMask::BOTH, &samples, &view);
        assert_eq!(clean.predictions, outed.predictions);
        assert_eq!(clean.overall.mae, outed.overall.mae);
    }

    #[test]
    fn outage_evaluation_diverges_from_clean_at_high_rates() {
        let ds = dataset();
        let plan = OutagePlan::generate(
            ds.corridor().n_roads(),
            ds.corridor().intervals(),
            &OutageConfig {
                rate: 0.5,
                ..OutageConfig::default()
            },
        );
        let view = OutageView::new(ds.corridor(), &plan);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 1);
        let samples: Vec<usize> = ds.test_samples().iter().copied().take(64).collect();
        let clean = crate::eval::evaluate(p.as_mut(), &ds, FeatureMask::BOTH, &samples);
        let outed = evaluate_with_outage(p.as_mut(), &ds, FeatureMask::BOTH, &samples, &view);
        assert_ne!(
            clean.predictions, outed.predictions,
            "a 50% outage must perturb at least one prediction"
        );
        // Targets stay ground truth regardless of the outage.
        assert_eq!(clean.observations, outed.observations);
    }
}
