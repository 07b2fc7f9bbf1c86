//! Evaluation: test-set metrics in km/h, situation-segmented accuracy
//! (Fig 4's whole / normal / abrupt-acc / abrupt-dec rows) and scenario
//! trace prediction (Fig 6).

use apots_metrics::situations::{SituationSplit, DEFAULT_THETA};
use apots_metrics::ErrorSummary;

use apots_traffic::{FeatureMask, TrafficDataset};

use crate::encode::encode_inputs;
use crate::predictor::Predictor;
use crate::InferenceMode;

/// Evaluation batch size (forward-only, so large is fine).
const EVAL_BATCH: usize = 256;

/// The outcome of evaluating a predictor on a sample set.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Predictions in km/h, aligned with the sample order.
    pub predictions: Vec<f32>,
    /// Observed speeds in km/h.
    pub observations: Vec<f32>,
    /// Observed speeds one interval before each target (for Eq 7/8).
    pub previous: Vec<f32>,
    /// Metrics over all samples ("Whole period").
    pub overall: ErrorSummary,
    /// Metrics over the normal subset (`None` if the subset is empty).
    pub normal: Option<ErrorSummary>,
    /// Metrics over abrupt accelerations.
    pub abrupt_acc: Option<ErrorSummary>,
    /// Metrics over abrupt decelerations.
    pub abrupt_dec: Option<ErrorSummary>,
}

impl EvalResult {
    /// MAPE rows in Fig 4's order: whole, normal, abrupt-acc, abrupt-dec
    /// (`NaN` for empty subsets).
    pub fn mape_rows(&self) -> [f32; 4] {
        [
            self.overall.mape,
            self.normal.map_or(f32::NAN, |s| s.mape),
            self.abrupt_acc.map_or(f32::NAN, |s| s.mape),
            self.abrupt_dec.map_or(f32::NAN, |s| s.mape),
        ]
    }
}

/// Runs the predictor over `samples` (base times) and computes all metrics
/// in km/h.
pub fn evaluate(
    predictor: &dyn Predictor,
    data: &TrafficDataset,
    mask: FeatureMask,
    samples: &[usize],
) -> EvalResult {
    assert!(!samples.is_empty(), "evaluate: empty sample set");
    let norm = data.speed_norm();
    let mut predictions = Vec::with_capacity(samples.len());
    let mut observations = Vec::with_capacity(samples.len());
    let mut previous = Vec::with_capacity(samples.len());

    for chunk in samples.chunks(EVAL_BATCH) {
        let (input, _) = encode_inputs(predictor.kind(), data, chunk, mask);
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

/// Computes the situation-segmented summaries from raw km/h series.
pub fn summarize(predictions: Vec<f32>, observations: Vec<f32>, previous: Vec<f32>) -> EvalResult {
    let split = SituationSplit::from_speeds(&previous, &observations, DEFAULT_THETA);
    let subset = |idx: &[usize]| -> Option<ErrorSummary> {
        if idx.is_empty() {
            None
        } else {
            Some(ErrorSummary::compute(
                &SituationSplit::select(&predictions, idx),
                &SituationSplit::select(&observations, idx),
            ))
        }
    };
    let overall = ErrorSummary::compute(&predictions, &observations);
    let normal = subset(&split.normal);
    let abrupt_acc = subset(&split.abrupt_acc);
    let abrupt_dec = subset(&split.abrupt_dec);
    EvalResult {
        predictions,
        observations,
        previous,
        overall,
        normal,
        abrupt_acc,
        abrupt_dec,
    }
}

/// Predicts a km/h speed trace over an interval range (Fig 6): for every
/// target interval `τ` in the range (where a full input window exists),
/// returns `(τ, prediction)`.
pub fn predict_trace(
    predictor: &dyn Predictor,
    data: &TrafficDataset,
    mask: FeatureMask,
    range: std::ops::Range<usize>,
) -> Vec<(usize, f32)> {
    let alpha = data.config().alpha;
    let beta = data.config().beta;
    let norm = data.speed_norm();
    // Target τ needs base time t = τ − β with window [t − α, t − 1].
    let bases: Vec<usize> = range
        .filter(|&tau| tau >= beta + alpha && tau < data.corridor().intervals())
        .map(|tau| tau - beta)
        .collect();
    if bases.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(bases.len());
    for chunk in bases.chunks(EVAL_BATCH) {
        let (input, _) = encode_inputs(predictor.kind(), data, chunk, mask);
        let pred = predictor.forward_infer(&input, InferenceMode::Exact);
        for (i, &t) in chunk.iter().enumerate() {
            out.push((t + beta, norm.denormalize(pred.at2(i, 0))));
        }
    }
    out
}

/// Convenience wrapper: evaluates a *fixed* prediction vector (used for
/// Prophet and the naive baselines, which do not implement [`Predictor`]).
pub fn evaluate_fixed(
    predictions: Vec<f32>,
    data: &TrafficDataset,
    samples: &[usize],
) -> EvalResult {
    assert_eq!(
        predictions.len(),
        samples.len(),
        "evaluate_fixed: prediction count mismatch"
    );
    let observations: Vec<f32> = samples
        .iter()
        .map(|&t| data.raw_target_speed(data.target_time(t)))
        .collect();
    let previous: Vec<f32> = samples
        .iter()
        .map(|&t| data.raw_target_speed(data.target_time(t) - 1))
        .collect();
    summarize(predictions, observations, previous)
}

// Re-exported for callers that only have normalized predictions.
pub use apots_traffic::Normalizer;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HyperPreset, PredictorKind};
    use crate::predictor::build_predictor;
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
    fn evaluate_produces_kmh_scale_metrics() {
        let ds = dataset();
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 1);
        let res = evaluate(p.as_mut(), &ds, FeatureMask::BOTH, ds.test_samples());
        assert_eq!(res.predictions.len(), ds.test_samples().len());
        // Observations are raw speeds: km/h range, not [0, 1].
        assert!(res.observations.iter().any(|&v| v > 10.0));
        assert!(res.overall.mape.is_finite());
        assert!(res.overall.rmse >= res.overall.mae * 0.99);
    }

    #[test]
    fn perfect_fixed_predictions_have_zero_error() {
        let ds = dataset();
        let samples = ds.test_samples().to_vec();
        let perfect: Vec<f32> = samples
            .iter()
            .map(|&t| ds.raw_target_speed(ds.target_time(t)))
            .collect();
        let res = evaluate_fixed(perfect, &ds, &samples);
        assert!(res.overall.mape < 1e-4);
        assert!(res.overall.mae < 1e-4);
    }

    #[test]
    fn situation_subsets_partition_samples() {
        let ds = dataset();
        let samples = ds.test_samples().to_vec();
        let naive: Vec<f32> = samples
            .iter()
            .map(|&t| ds.raw_target_speed(ds.target_time(t) - 1))
            .collect();
        let res = evaluate_fixed(naive, &ds, &samples);
        let rows = res.mape_rows();
        assert!(rows[0].is_finite());
        // Whole-period MAPE is a mix, so it lies within subset extremes
        // whenever all subsets exist; at minimum it must be positive.
        assert!(rows[0] > 0.0);
    }

    #[test]
    fn predict_trace_aligns_with_range() {
        let ds = dataset();
        let mut p = build_predictor(PredictorKind::Lstm, HyperPreset::Fast, &ds, 2);
        let trace = predict_trace(p.as_mut(), &ds, FeatureMask::BOTH, 100..130);
        assert_eq!(trace.len(), 30);
        assert_eq!(trace[0].0, 100);
        assert_eq!(trace[29].0, 129);
        assert!(trace.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn predict_trace_clips_invalid_prefix() {
        let ds = dataset();
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 3);
        let trace = predict_trace(p.as_mut(), &ds, FeatureMask::BOTH, 0..20);
        // Targets before α + β lack a full window.
        assert!(trace.iter().all(|(t, _)| *t >= 13));
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn evaluate_rejects_empty() {
        let ds = dataset();
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 1);
        let _ = evaluate(p.as_mut(), &ds, FeatureMask::BOTH, &[]);
    }
}
