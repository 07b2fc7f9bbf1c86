//! Acceptance tests for the inference lanes (DESIGN.md §15):
//!
//! * the `Int8` lane's output bits are pinned for every kind, and the
//!   lane is bitwise thread-count invariant;
//! * one shared model answers concurrent callers exactly as it answers
//!   one caller, on both lanes;
//! * `Int8` predictions track the `Exact` lane within the documented
//!   accuracy bounds, per output and end-to-end (MSE delta);
//! * training is bit-identical by construction — the int8 kernels are
//!   unreachable from `train_with_options`, pinned via the kernel
//!   dispatch counters.
//!
//! The kernel counters are process globals, so the tests in this binary
//! serialize through one lock.

use std::sync::{Arc, Barrier, Mutex};

use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::encode::PredictorInput;
use apots::predictor::{build_predictor, Predictor};
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
fn infer(p: &dyn Predictor, data: &TrafficDataset, n: usize, mode: InferenceMode) -> Tensor {
    p.forward_infer(&input(p.kind(), data, 0, n), mode)
}

/// The encoded test windows `first..first + n` for `kind`.
fn input(kind: PredictorKind, data: &TrafficDataset, first: usize, n: usize) -> PredictorInput {
    let feats: Vec<_> = data.test_samples()[first..first + n]
        .iter()
        .map(|&t| data.features(t, FeatureMask::BOTH))
        .collect();
    apots::encode::encode_features(kind, &feats).0
}

/// Test-set MSE in (km/h)² on `mode`.
fn mse(p: &dyn Predictor, data: &TrafficDataset, n: usize, mode: InferenceMode) -> f64 {
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
        let exact = infer(p.as_ref(), &data, 48, InferenceMode::Exact);
        apots_par::set_threads(1);
        let one = infer(p.as_ref(), &data, 48, InferenceMode::Int8);
        apots_par::set_threads(4);
        let four = infer(p.as_ref(), &data, 48, InferenceMode::Int8);
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
    let exact = mse(p.as_ref(), &data, 64, InferenceMode::Exact);
    let m = mse(p.as_ref(), &data, 64, InferenceMode::Int8);
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
    // reachable through `Layer::infer` / `Predictor::forward_infer`, and
    // the training loop asks them for `Exact` only.
    assert_eq!(KERNEL_QMATMUL.get(), qmm0, "training hit the int8 matmul");
    assert_eq!(KERNEL_QUANTIZE.get(), quant0, "training quantized weights");
}

/// FNV-1a of the `Int8` lane's output bits at batch 1 then batch 7, per
/// kind (Fast preset, seed `0x1B17`, the first test windows). Captured
/// from the per-layer `forward_mode` bodies this lane replaced; the serve
/// int8 checksum covers only the FC model, so these are what pin the
/// Conv2d and LSTM int8 bits.
const INT8_GOLDEN: [(PredictorKind, u64); 4] = [
    (PredictorKind::Fc, 0xf4107d4b6e7c0cb4),
    (PredictorKind::Lstm, 0x39c458e4ebc54be8),
    (PredictorKind::Cnn, 0x1305c818f1a68609),
    (PredictorKind::Hybrid, 0x28cb55191654641c),
];

#[test]
fn int8_lane_output_bits_match_the_golden() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    for (kind, golden) in INT8_GOLDEN {
        let mut p = build_predictor(kind, HyperPreset::Fast, &data, 0x1B17);
        p.prepare(InferenceMode::Int8);
        let mut h = apots_serde::atomic::Fnv1a::new();
        for n in [1, 7] {
            let out = infer(p.as_ref(), &data, n, InferenceMode::Int8);
            assert_eq!(out.shape(), &[n, 1], "{kind:?}");
            for v in out.data() {
                h.write(&v.to_bits().to_le_bytes());
            }
        }
        let got = h.finish();
        assert_eq!(got, golden, "{kind:?}: int8 bits moved (got {got:#018x})");
    }
}

/// One prepared model behind an `Arc`, queried by four threads released
/// together (each walking the same inputs from a different start),
/// answers every query exactly as the serial pass did, for every kind on
/// both lanes.
#[test]
fn one_shared_model_answers_concurrent_callers_bit_for_bit() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    // Single windows (the serving shape) and one batch wide enough to
    // split the LSTM gate loop across the pool.
    let shapes: Vec<(usize, usize)> = (0..6).map(|i| (i, 1)).chain([(8, 96)]).collect();
    for kind in PredictorKind::all() {
        let inputs: Vec<PredictorInput> = shapes
            .iter()
            .map(|&(first, n)| input(kind, &data, first, n))
            .collect();
        for mode in [InferenceMode::Exact, InferenceMode::Int8] {
            let mut p = build_predictor(kind, HyperPreset::Fast, &data, 0x5A4E);
            p.prepare(mode);
            let model: Arc<dyn Predictor> = Arc::from(p);
            let serial: Vec<Tensor> = inputs
                .iter()
                .map(|x| model.forward_infer(x, mode))
                .collect();
            let start = Barrier::new(4);
            std::thread::scope(|s| {
                for t in 0..4 {
                    let (model, inputs, serial, start) = (&model, &inputs, &serial, &start);
                    s.spawn(move || {
                        start.wait();
                        for round in 0..3 {
                            for k in 0..inputs.len() {
                                let i = (k + t + round) % inputs.len();
                                let got = model.forward_infer(&inputs[i], mode);
                                assert_eq!(got, serial[i], "{kind:?}/{mode} input {i}");
                            }
                        }
                    });
                }
            });
        }
    }
}
