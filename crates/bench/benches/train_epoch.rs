//! **Training-epoch bench** — one full optimisation epoch (plain, the
//! adversarial trainer's plain warm-up, and real adversarial batches) at
//! pinned thread counts, so the bench trajectory records how much of the
//! kernel-level speedup survives end-to-end training.
//!
//! Pairs with `parallel_kernels.rs`: that file measures the individual
//! matmul / conv / elementwise kernels, this one measures the composite
//! workload that PR-2's crash-safe trainer actually runs. Outputs are
//! bit-identical across thread counts (see
//! `crates/core/tests/parallel_equivalence.rs`), so the only thing that
//! varies between `threads1` and `threads4` here is wall-clock time.

use std::time::Duration;

use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::predictor::build_predictor;
use apots::trainer::{build_discriminator, train_apots_with, train_plain};
use apots_bench::{criterion_group, criterion_main, Criterion};
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};
use std::hint::black_box;

fn dataset() -> TrafficDataset {
    let cal = Calendar::new(7, 6, vec![3]);
    TrafficDataset::new(
        Corridor::generate_with_calendar(SimConfig::default(), cal),
        DataConfig::default(),
    )
}

/// Runs `body` with the pool pinned to `n` threads, then restores the
/// environment-driven default.
fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
    apots_par::set_threads(n);
    let out = body();
    apots_par::reset_threads();
    out
}

fn bench_plain_epoch(c: &mut Criterion) {
    let data = dataset();
    // H (the hybrid APOTS generator) is the heaviest predictor and the
    // paper's headline model; it exercises every parallel kernel family.
    let kind = PredictorKind::Hybrid;
    let mut cfg = TrainConfig::fast_plain(FeatureMask::BOTH);
    cfg.epochs = 1;
    cfg.max_train_samples = Some(256);
    for threads in [1usize, 4] {
        c.bench_function(&format!("plain_epoch_256_H_threads{threads}"), |b| {
            with_threads(threads, || {
                b.iter(|| {
                    let mut p = build_predictor(kind, HyperPreset::Fast, &data, 1);
                    black_box(train_plain(p.as_mut(), &data, &cfg))
                })
            })
        });
    }
}

fn bench_adversarial_epoch(c: &mut Criterion) {
    let data = dataset();
    let kind = PredictorKind::Hybrid;
    let mut cfg = TrainConfig::fast_adversarial(FeatureMask::BOTH);
    cfg.epochs = 1;
    cfg.max_train_samples = Some(256);
    // `fast_adversarial` opens with `adv_warmup_epochs = 6` plain epochs, so
    // a one-epoch run of it never leaves warm-up; `adv_epoch_*` skips
    // warm-up and times real adversarial batches (the D step and the
    // 2α-window P step).
    let warmup = cfg.adv_warmup_epochs;
    for (name, warmup) in [("adv_warmup_epoch_256_H", warmup), ("adv_epoch_256_H", 0)] {
        cfg.adv_warmup_epochs = warmup;
        for threads in [1usize, 4] {
            c.bench_function(&format!("{name}_threads{threads}"), |b| {
                with_threads(threads, || {
                    b.iter(|| {
                        let mut p = build_predictor(kind, HyperPreset::Fast, &data, 1);
                        let mut d = build_discriminator(&data, &cfg);
                        black_box(train_apots_with(p.as_mut(), &mut d, &data, &cfg))
                    })
                })
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = bench_plain_epoch, bench_adversarial_epoch
}
criterion_main!(benches);
