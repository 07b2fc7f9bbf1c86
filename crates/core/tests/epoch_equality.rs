//! **Full-epoch equality pin** — end-to-end half of the workspace-arena
//! contract (DESIGN.md §10): after the arena/`_into`-kernel rewrite, a
//! complete training run (plain and adversarial, all four predictor
//! kinds) must produce **exactly** the bits the pre-arena implementation
//! produced at the same seed, and must not depend on `APOTS_THREADS`.
//!
//! The golden values below were captured from the allocating
//! implementation immediately before the arena rewrite landed (same
//! dataset, config and seeds, serial path) and re-verified bit-for-bit
//! after every conversion stage. Two hashes pin each scenario:
//!
//! * `mse_bits` — the raw `f32::to_bits` of the final training-epoch MSE;
//! * `param_hash` — FNV-1a over the little-endian bit patterns of every
//!   trainable parameter, in stable `params_mut()` order.
//!
//! Together they cover the whole forward → loss → backward → clip → Adam
//! chain for two epochs: any reassociated reduction, reordered RNG draw,
//! or aliasing bug in an `_into` kernel changes at least one of them.
//!
//! If this test fails after an *intentional* numerics change, recapture
//! the goldens from the pre-change revision and document the break in
//! DESIGN.md §9 — never update the constants to whatever the new code
//! happens to produce.

use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::predictor::build_predictor;
use apots::trainer::{train_apots, train_plain};
use apots_serde::atomic::Fnv1a;
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

/// `(kind, adversarial, final-MSE bits, FNV-1a parameter hash)`, captured
/// pre-arena at `APOTS_THREADS=1`, predictor seed 42, config seed 2024.
const GOLDENS: [(PredictorKind, bool, u32, u64); 8] = [
    (PredictorKind::Fc, false, 0x3d779f50, 0x49dc6228c6fa7ded),
    (PredictorKind::Fc, true, 0x3d5e1b22, 0x14af4ca44da21b57),
    (PredictorKind::Lstm, false, 0x3de024b5, 0x59f949da73ec31ad),
    (PredictorKind::Lstm, true, 0x3dd6f97b, 0xecce9c908e9671b6),
    (PredictorKind::Cnn, false, 0x3db8dce2, 0x45600bee6f8a2c98),
    (PredictorKind::Cnn, true, 0x3d687b32, 0x1985345f25985e3f),
    (PredictorKind::Hybrid, false, 0x3d747594, 0xc7801fd858134d0d),
    (PredictorKind::Hybrid, true, 0x3d730357, 0xff241f1910ea8476),
];

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
    c.seed = 2024;
    c
}

/// Trains one scenario and returns `(mse_bits, param_hash)`.
fn run(ds: &TrafficDataset, kind: PredictorKind, adversarial: bool) -> (u32, u64) {
    let cfg = tiny_config(adversarial);
    let mut p = build_predictor(kind, HyperPreset::Fast, ds, 42);
    let report = if adversarial {
        train_apots(p.as_mut(), ds, &cfg)
    } else {
        train_plain(p.as_mut(), ds, &cfg)
    };
    let mse_bits = report
        .final_mse()
        .expect("training produced no MSE")
        .to_bits();
    let mut param_hash = Fnv1a::new();
    for pr in p.params_mut() {
        for v in pr.value.data() {
            param_hash.write(&v.to_le_bytes());
        }
    }
    (mse_bits, param_hash.finish())
}

fn check_all_at(threads: usize) {
    apots_par::set_threads(threads);
    let ds = dataset();
    let mut failures = Vec::new();
    for &(kind, adv, want_mse, want_hash) in &GOLDENS {
        let (mse_bits, param_hash) = run(&ds, kind, adv);
        if mse_bits != want_mse || param_hash != want_hash {
            failures.push(format!(
                "{kind:?} adv={adv} threads={threads}: \
                 mse_bits=0x{mse_bits:08x} (want 0x{want_mse:08x}), \
                 param_hash=0x{param_hash:016x} (want 0x{want_hash:016x})"
            ));
        }
    }
    apots_par::reset_threads();
    assert!(
        failures.is_empty(),
        "full-epoch outputs diverged from the pre-arena goldens:\n  {}",
        failures.join("\n  ")
    );
}

/// Serial path: bit-for-bit equal to the pre-arena implementation.
#[test]
fn full_epoch_outputs_match_pre_arena_goldens_serial() {
    check_all_at(1);
}

/// Pool path: the same bits at `APOTS_THREADS=4` — thread count must not
/// leak into any reduction order (DESIGN.md §9).
#[test]
fn full_epoch_outputs_match_pre_arena_goldens_threads4() {
    check_all_at(4);
}
