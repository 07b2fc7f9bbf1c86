//! Acceptance tests for the int8 inference lane (DESIGN.md §15):
//!
//! * the lane is bitwise thread-count invariant;
//! * `Int8` predictions track the `Exact` lane within the documented
//!   accuracy bounds, per output and end-to-end (MSE delta);
//! * training is bit-identical by construction — the int8 kernels are
//!   unreachable from `train_with_options`, pinned via the kernel
//!   dispatch counters.
//!
//! The kernel counters are process globals, so the tests in this binary
//! serialize through one lock.

use std::sync::Mutex;

use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::predictor::build_predictor;
use apots::runtime::TrainOptions;
use apots::trainer::train_with_options;
use apots::InferenceMode;
use apots_obs::metrics::{KERNEL_QMATMUL, KERNEL_QUANTIZE};
use apots_tensor::Tensor;
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn dataset() -> TrafficDataset {
    let cal = Calendar::new(8, 6, vec![]);
    TrafficDataset::new(
        Corridor::generate_with_calendar(SimConfig::default(), cal),
        DataConfig::default(),
    )
}

/// Forward over the first `n` test samples on `mode`; returns the raw
/// (normalized) output tensor.
fn infer(
    p: &mut dyn apots::Predictor,
    data: &TrafficDataset,
    n: usize,
    mode: InferenceMode,
) -> Tensor {
    let feats: Vec<_> = data
        .test_samples()
        .iter()
        .take(n)
        .map(|&t| data.features(t, FeatureMask::BOTH))
        .collect();
    let (input, _) = apots::encode::encode_features(p.kind(), &feats);
    p.forward_infer(&input, mode)
}

/// Test-set MSE in (km/h)² on `mode`.
fn mse(p: &mut dyn apots::Predictor, data: &TrafficDataset, n: usize, mode: InferenceMode) -> f64 {
    let feats: Vec<_> = data
        .test_samples()
        .iter()
        .take(n)
        .map(|&t| data.features(t, FeatureMask::BOTH))
        .collect();
    let (input, targets) = apots::encode::encode_features(p.kind(), &feats);
    let out = p.forward_infer(&input, mode);
    let norm = data.speed_norm();
    let scale = f64::from(norm.max() - norm.min());
    (0..feats.len())
        .map(|i| {
            let d = f64::from(out.at2(i, 0) - targets.at2(i, 0)) * scale;
            d * d
        })
        .sum::<f64>()
        / feats.len() as f64
}

#[test]
fn every_lane_is_thread_invariant_and_tracks_exact_per_output() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    for kind in PredictorKind::all() {
        let mut p = build_predictor(kind, HyperPreset::Fast, &data, 0xFA57);
        p.prepare(InferenceMode::Int8);
        let exact = infer(p.as_mut(), &data, 48, InferenceMode::Exact);
        apots_par::set_threads(1);
        let one = infer(p.as_mut(), &data, 48, InferenceMode::Int8);
        apots_par::set_threads(4);
        let four = infer(p.as_mut(), &data, 48, InferenceMode::Int8);
        apots_par::reset_threads();
        assert_eq!(
            one.data(),
            four.data(),
            "{kind:?}/Int8 depends on APOTS_THREADS"
        );
        // Per-output accuracy: normalized speeds live in ~[0, 1], so this
        // is an absolute bound on that scale.
        let tol = 0.25;
        for (a, b) in exact.data().iter().zip(one.data()) {
            assert!((a - b).abs() < tol, "{kind:?}/Int8: {a} vs {b} (tol {tol})");
        }
    }
}

#[test]
fn e2e_mse_delta_of_fast_lanes_is_bounded_after_training() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let mut cfg = TrainConfig::fast_plain(FeatureMask::BOTH);
    cfg.epochs = 1;
    cfg.seed = 0x15E2;
    let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &data, cfg.seed);
    train_with_options(p.as_mut(), &data, &cfg, &mut TrainOptions::default()).expect("train");
    let exact = mse(p.as_mut(), &data, 64, InferenceMode::Exact);
    let m = mse(p.as_mut(), &data, 64, InferenceMode::Int8);
    let delta = (m - exact).abs();
    // The e2e gate: the lane may move the test MSE by at most 5% of the
    // exact value plus a 0.5 (km/h)² absolute floor.
    assert!(
        delta <= 0.05 * exact + 0.5,
        "Int8: MSE {m} vs exact {exact} (delta {delta})"
    );
}

#[test]
fn training_never_dispatches_fast_or_quantized_kernels() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let qmm0 = KERNEL_QMATMUL.get();
    let quant0 = KERNEL_QUANTIZE.get();
    let mut cfg = TrainConfig::fast_plain(FeatureMask::BOTH);
    cfg.epochs = 1;
    let mut p = build_predictor(PredictorKind::Hybrid, HyperPreset::Fast, &data, 0x7AA1);
    train_with_options(p.as_mut(), &data, &cfg, &mut TrainOptions::default()).expect("train");
    // Bit-identical training by construction: the int8 lane is only
    // reachable through forward_infer/forward_mode, which the training
    // loop never calls.
    assert_eq!(KERNEL_QMATMUL.get(), qmm0, "training hit the int8 matmul");
    assert_eq!(KERNEL_QUANTIZE.get(), quant0, "training quantized weights");
}
