//! **Quantized-kernel bench** — the int8 inference lane against the
//! bit-exact f32 serial-chain kernel, on the acceptance 256³ shape and
//! the Paper-preset Dense/LSTM layer shapes.
//!
//! Every pair runs at one pinned thread so the ratio measures the
//! kernels themselves, not the pool. The acceptance bar (committed as
//! `bench_baselines.json` medians): int8 ≥ 2× over `*_f32_serial` at
//! 256³. Weight quantization happens once outside the timed region —
//! that is exactly the serving setup, where `QuantizedSnapshot`
//! quantizes at swap time, never per request.

use std::time::Duration;

use apots_bench::{criterion_group, criterion_main, Criterion};
use apots_tensor::quant::{qmatmul, quantize_weights};
use apots_tensor::rng::seeded;
use apots_tensor::Tensor;
use std::hint::black_box;

/// Runs `body` with the pool pinned to `n` threads, then restores the
/// environment-driven default.
fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
    apots_par::set_threads(n);
    let out = body();
    apots_par::reset_threads();
    out
}

/// One f32-serial / int8 pair on an `[m,k]·[k,n]` shape.
fn bench_pair(c: &mut Criterion, label: &str, m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = seeded(seed);
    let x = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
    let w = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
    let qw = quantize_weights(&w);

    c.bench_function(&format!("{label}_f32_serial"), |bench| {
        with_threads(1, || bench.iter(|| black_box(x.matmul(&w))))
    });
    c.bench_function(&format!("{label}_int8"), |bench| {
        with_threads(1, || bench.iter(|| black_box(qmatmul(&x, &qw))))
    });
}

fn bench_matmul_256(c: &mut Criterion) {
    // The acceptance shape: 256³.
    bench_pair(c, "quant_matmul_256x256x256", 256, 256, 256, 0x256);
}

fn bench_layer_shapes(c: &mut Criterion) {
    // Paper-preset Dense (first FC layer, batch 256): [256,512]·[512,128].
    bench_pair(c, "quant_dense_256x512x128", 256, 512, 128, 0xDE45E);
    // Paper-preset LSTM recurrent step (batch 64, hidden 512, 4 gates):
    // [64,512]·[512,2048].
    bench_pair(c, "quant_lstm_step_64x512x2048", 64, 512, 2048, 0x157);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_matmul_256, bench_layer_shapes,
}
criterion_main!(benches);
