//! **Parallel-kernel bench** — serial reference loops vs the
//! register-tiled, pool-partitioned production kernels, at fixed thread
//! counts.
//!
//! The headline pair is `matmul_256x256x256_serial` (the naive
//! specification kernel in `apots_tensor::reference`, i.e. the
//! pre-parallel-runtime code path) against `matmul_256x256x256_threads4`
//! (the production path under `APOTS_THREADS=4`); the acceptance bar for
//! the parallel runtime is a ≥ 2× median speedup on that pair. Both
//! paths produce bit-identical outputs — see the serial/parallel equality
//! property suite in `crates/core/tests/parallel_equivalence.rs`.

use std::time::Duration;

use apots_bench::{criterion_group, criterion_main, Criterion};
use apots_nn::conv::Conv2d;
use apots_nn::layer::Layer;
use apots_tensor::rng::seeded;
use apots_tensor::{reference, Tensor};
use std::hint::black_box;

/// Runs `body` with the pool pinned to `n` threads, then restores the
/// environment-driven default.
fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
    apots_par::set_threads(n);
    let out = body();
    apots_par::reset_threads();
    out
}

fn bench_matmul_256(c: &mut Criterion) {
    let mut rng = seeded(0xBEEF);
    let a = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);

    c.bench_function("matmul_256x256x256_serial", |bench| {
        bench.iter(|| black_box(reference::matmul(a.data(), b.data(), 256, 256, 256)))
    });
    c.bench_function("matmul_256x256x256_threads1", |bench| {
        with_threads(1, || bench.iter(|| black_box(a.matmul(&b))))
    });
    c.bench_function("matmul_256x256x256_threads4", |bench| {
        with_threads(4, || bench.iter(|| black_box(a.matmul(&b))))
    });
}

fn bench_transposed_matmuls(c: &mut Criterion) {
    let mut rng = seeded(0xFACE);
    // Weight-gradient shape: xᵀ·dy with x [256, 192], dy [256, 128].
    let x = Tensor::rand_uniform(&[256, 192], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[256, 128], -1.0, 1.0, &mut rng);
    c.bench_function("matmul_at_b_192x256x128_serial", |bench| {
        bench.iter(|| black_box(reference::matmul_at_b(x.data(), dy.data(), 256, 192, 128)))
    });
    c.bench_function("matmul_at_b_192x256x128_threads4", |bench| {
        with_threads(4, || bench.iter(|| black_box(x.matmul_at_b(&dy))))
    });

    // Input-gradient shape: dy·wᵀ with w [192, 128].
    let w = Tensor::rand_uniform(&[192, 128], -1.0, 1.0, &mut rng);
    c.bench_function("matmul_a_bt_256x128x192_serial", |bench| {
        bench.iter(|| black_box(reference::matmul_a_bt(dy.data(), w.data(), 256, 128, 192)))
    });
    c.bench_function("matmul_a_bt_256x128x192_threads4", |bench| {
        with_threads(4, || bench.iter(|| black_box(dy.matmul_a_bt(&w))))
    });
}

fn bench_conv2d(c: &mut Criterion) {
    // APOTS C tower shape: 3×3 conv over the [roads, time] speed image.
    let mut rng = seeded(0xC0FFEE);
    let x = Tensor::randn(&[8, 4, 14, 12], 0.0, 1.0, &mut rng);
    let g = Tensor::randn(&[8, 8, 14, 12], 0.0, 1.0, &mut rng);
    for threads in [1usize, 4] {
        let mut conv = Conv2d::new(4, 8, 3, 3, &mut rng);
        c.bench_function(
            &format!("conv2d_fwd_bwd_8x4x14x12_threads{threads}"),
            |bench| {
                with_threads(threads, || {
                    bench.iter(|| {
                        let y = conv.forward(&x);
                        black_box(conv.backward(&g));
                        black_box(y)
                    })
                })
            },
        );
    }
}

fn bench_elementwise(c: &mut Criterion) {
    let mut rng = seeded(0xE1E);
    let x = Tensor::rand_uniform(&[1 << 20], -2.0, 2.0, &mut rng);
    c.bench_function("tanh_1m_serial_map", |bench| {
        bench.iter(|| black_box(x.map(f32::tanh)))
    });
    for threads in [1usize, 4] {
        c.bench_function(&format!("tanh_1m_par_map_threads{threads}"), |bench| {
            with_threads(threads, || bench.iter(|| black_box(x.par_map(f32::tanh))))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_matmul_256, bench_transposed_matmuls, bench_conv2d, bench_elementwise,
}
criterion_main!(benches);
