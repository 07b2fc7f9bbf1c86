//! Determinism acceptance suite for the parallel runtime: every kernel,
//! every layer, and a full training epoch must produce **bit-identical**
//! outputs for any `APOTS_THREADS` setting. This is the contract that
//! lets the resume-equivalence suite (PR-2) keep holding when the pool
//! is enabled: a checkpoint written at T=1 must be byte-for-byte the
//! checkpoint written at T=4.
//!
//! The suite pins thread counts through [`apots_par::set_threads`], which
//! is a process-global override — so every test that touches it holds a
//! shared lock, making the pinning race-free under the default parallel
//! test harness.

use std::sync::{Mutex, MutexGuard, OnceLock};

use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::eval::evaluate;
use apots::predictor::build_predictor;
use apots::runtime::TrainOptions;
use apots::trainer::train_with_options;
use apots_check::{check_with, prop_assert, Config as CheckConfig, Rng};
use apots_nn::conv::Conv2d;
use apots_nn::layer::Layer;
use apots_nn::Lstm;
use apots_tensor::rng::seeded;
use apots_tensor::{reference, InferenceMode, Tensor};
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

/// Thread counts exercised by every property: the exact serial path,
/// small odd/even pools, and an oversubscribed pool (8 > core count).
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Serializes all tests that mutate the process-global thread override.
fn pool_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `body` with the pool pinned to `n` threads, restoring the
/// environment default afterwards even if `body` panics.
fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            apots_par::reset_threads();
        }
    }
    let _reset = Reset;
    apots_par::set_threads(n);
    body()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------
// Matmul kernels: random shapes × random thread counts ≡ the serial
// reference loops, bit for bit.
// ---------------------------------------------------------------------

#[test]
fn matmul_kernels_bit_identical_for_any_thread_count() {
    let _guard = pool_lock();
    let cfg = CheckConfig {
        cases: 64,
        ..CheckConfig::default()
    };
    check_with(
        &cfg,
        "matmul_kernels_bit_identical_for_any_thread_count",
        |rng| {
            let m = rng.random_range(1..24usize);
            let k = rng.random_range(1..24usize);
            let n = rng.random_range(1..24usize);
            let t = THREAD_COUNTS[rng.random_range(0..THREAD_COUNTS.len())];
            let seed = rng.random_range(0..u32::MAX as u64);
            (m, k, (n, t, seed))
        },
        |&(m, k, (n, t, seed))| {
            let mut rng = seeded(seed);
            let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
            // a·b against the reference loop.
            let want = reference::matmul(a.data(), b.data(), m, k, n);
            let got = with_threads(t, || a.matmul(&b));
            prop_assert!(
                got.data() == want.as_slice(),
                "matmul {m}x{k}x{n} diverged from reference at T={t}"
            );
            // aᵀ·b: reinterpret `a` as [k, m] operand stored row-major.
            let at = Tensor::rand_uniform(&[k, m], -2.0, 2.0, &mut rng);
            let want = reference::matmul_at_b(at.data(), b.data(), k, m, n);
            let got = with_threads(t, || at.matmul_at_b(&b));
            prop_assert!(
                got.data() == want.as_slice(),
                "matmul_at_b {m}x{k}x{n} diverged from reference at T={t}"
            );
            // a·bᵀ with b as [n, k].
            let bt = Tensor::rand_uniform(&[n, k], -2.0, 2.0, &mut rng);
            let want = reference::matmul_a_bt(a.data(), bt.data(), m, k, n);
            let got = with_threads(t, || a.matmul_a_bt(&bt));
            prop_assert!(
                got.data() == want.as_slice(),
                "matmul_a_bt {m}x{k}x{n} diverged from reference at T={t}"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// a·bᵀ at the sizes the trainer runs: above the pool grain, so the pooled
// path over the transposed copy of `b` is what gets checked.
// ---------------------------------------------------------------------

/// Bit patterns with every NaN mapped to one quiet NaN. IEEE 754 leaves
/// the payload and sign of a NaN result open (and LLVM may commute the
/// operands of a float add), so "the same NaN" means "NaN in the same
/// place"; every other value is compared bit for bit.
fn canonical_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// `a · bᵀ` through `matmul_a_bt` and `matmul_a_bt_into` at T ∈ {1, 2, 4},
/// each against the naive reference loop.
fn assert_a_bt_matches_reference(a: &Tensor, b: &Tensor) {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[0]);
    let want = canonical_bits(&reference::matmul_a_bt(a.data(), b.data(), m, k, n));
    for t in [1usize, 2, 4] {
        let got = with_threads(t, || a.matmul_a_bt(b));
        assert!(
            canonical_bits(got.data()) == want,
            "matmul_a_bt {m}x{k}·[{n}x{k}]ᵀ diverged from reference at T={t}"
        );
        // A dirty output buffer proves `_into` zeroes before accumulating.
        let mut into = Tensor::new(&[m * n], vec![7.0; m * n]);
        with_threads(t, || a.matmul_a_bt_into(b, &mut into));
        assert_eq!(into.shape(), &[m, n]);
        assert!(
            canonical_bits(into.data()) == want,
            "matmul_a_bt_into {m}x{k}·[{n}x{k}]ᵀ diverged from reference at T={t}"
        );
    }
}

#[test]
fn matmul_a_bt_bit_identical_at_trainer_shapes() {
    let _guard = pool_lock();
    let mut rng = seeded(2024);
    for &(m, k, n) in &[
        // The LSTM's input and recurrent gradients (B=64, 4H=128, I=60,
        // H=32) and the H predictor's Conv2d patch gradient.
        (64usize, 128usize, 60usize),
        (64, 128, 32),
        (3840, 12, 54),
        // Ragged tails: m % 4 != 0, and n off the 16/8/4-wide column tiles.
        (67, 128, 61),
        (301, 40, 22),
        (1029, 96, 3),
        (3843, 12, 53),
    ] {
        // 2^18 MACs is the pool grain in `apots-tensor`.
        assert!(m * k * n >= 1 << 18, "{m}x{k}x{n} would stay serial");
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, k], -2.0, 2.0, &mut rng);
        assert_a_bt_matches_reference(&a, &b);
    }
}

#[test]
fn matmul_a_bt_non_finite_operands_match_reference() {
    let _guard = pool_lock();
    let mut rng = seeded(2025);
    for &(m, k, n) in &[(64usize, 128usize, 60usize), (67, 128, 61)] {
        let mut a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let mut b = Tensor::rand_uniform(&[n, k], -2.0, 2.0, &mut rng);
        let ad = a.data_mut();
        ad[5 * k + 17] = f32::NAN;
        ad[(m - 1) * k + 3] = f32::INFINITY;
        ad[2 * k + k - 1] = f32::NEG_INFINITY;
        // A zero row of `a` against an infinite `b` entry: 0·inf is NaN.
        ad[9 * k..10 * k].fill(0.0);
        let bd = b.data_mut();
        bd[40] = f32::INFINITY;
        bd[(n - 1) * k + 100] = f32::NEG_INFINITY;
        bd[3 * k + 64] = f32::NAN;
        // inf − inf: a +inf and a −inf product in one chain.
        bd[7 * k + 17] = f32::INFINITY;
        bd[7 * k + 3] = f32::NEG_INFINITY;
        assert_a_bt_matches_reference(&a, &b);
    }
}

// ---------------------------------------------------------------------
// LSTM: the gate loop split by batch rows across the pool.
// ---------------------------------------------------------------------

/// Values of every `det: true` counter, in registry order.
fn det_counters() -> Vec<(&'static str, u64)> {
    apots_obs::metrics::ALL_COUNTERS
        .iter()
        .filter(|c| c.det())
        .map(|c| (c.name(), c.get()))
        .collect()
}

#[test]
fn lstm_row_split_bit_identical_for_any_thread_count() {
    let _guard = pool_lock();
    struct Disable;
    impl Drop for Disable {
        fn drop(&mut self) {
            apots_obs::disable();
        }
    }
    let _disable = Disable;
    // B=64, H=32 is the trainer's Fast-H step and splits into 16-row
    // blocks; B=7 at H=256 splits into blocks of 2, 2, 2, 1 rows; B=1 and
    // B=7 at H=32 stay on the serial loop at every thread count.
    for &(b, hsz, input) in &[
        (1usize, 32usize, 60usize),
        (7, 32, 5),
        (7, 256, 5),
        (64, 32, 60),
    ] {
        for seq_mode in [false, true] {
            let steps = 6;
            let run = |threads: usize| {
                with_threads(threads, || {
                    let mut rng = seeded(31 + b as u64);
                    let mut lstm = Lstm::new(input, hsz, seq_mode, &mut rng);
                    let x = Tensor::randn(&[b, steps, input], 0.0, 1.0, &mut rng);
                    let g_shape: &[usize] = if seq_mode {
                        &[b, steps, hsz]
                    } else {
                        &[b, hsz]
                    };
                    let g = Tensor::randn(g_shape, 0.0, 1.0, &mut rng);
                    apots_obs::enable(None);
                    let y = lstm.forward(&x);
                    let dx = lstm.backward(&g);
                    let counters = det_counters();
                    apots_obs::disable();
                    let grads: Vec<Vec<u32>> =
                        lstm.params_mut().iter().map(|p| bits(p.grad)).collect();
                    (bits(&y), bits(&dx), grads, counters)
                })
            };
            let want = run(1);
            assert!(
                want.3.iter().any(|&(_, v)| v > 0),
                "tracing was off: no det counter moved"
            );
            for t in [2usize, 4] {
                let got = run(t);
                assert!(
                    got.0 == want.0 && got.1 == want.1 && got.2 == want.2,
                    "LSTM B={b} H={hsz} (seq={seq_mode}) diverged between T=1 and T={t}"
                );
                assert_eq!(
                    got.3, want.3,
                    "LSTM B={b} H={hsz}: det counters moved between T=1 and T={t}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Conv2d: forward + backward, train and eval modes.
// ---------------------------------------------------------------------

#[test]
fn conv2d_forward_backward_bit_identical_for_any_thread_count() {
    let _guard = pool_lock();
    let cfg = CheckConfig {
        cases: 32,
        ..CheckConfig::default()
    };
    check_with(
        &cfg,
        "conv2d_forward_backward_bit_identical_for_any_thread_count",
        |rng| {
            let b = rng.random_range(1..4usize);
            let cin = rng.random_range(1..4usize);
            let cout = rng.random_range(1..5usize);
            let h = rng.random_range(3..10usize);
            let w = rng.random_range(3..10usize);
            let seed = rng.random_range(0..u32::MAX as u64);
            (b, cin, (cout, h, (w, seed)))
        },
        |&(b, cin, (cout, h, (w, seed)))| {
            let run = |threads: usize| {
                with_threads(threads, || {
                    let mut rng = seeded(seed);
                    let mut conv = Conv2d::new(cin, cout, 3, 3, &mut rng);
                    let x = Tensor::randn(&[b, cin, h, w], 0.0, 1.0, &mut rng);
                    let g = Tensor::randn(&[b, cout, h, w], 0.0, 1.0, &mut rng);
                    let y = conv.forward(&x);
                    let dx = conv.backward(&g);
                    let grads: Vec<Vec<u32>> =
                        conv.params_mut().iter().map(|p| bits(p.grad)).collect();
                    let y_eval = conv.infer(&x, InferenceMode::Exact);
                    (bits(&y), bits(&dx), grads, bits(&y_eval))
                })
            };
            let want = run(1);
            for &t in &THREAD_COUNTS[1..] {
                let got = run(t);
                prop_assert!(
                    got == want,
                    "conv2d {b}x{cin}x{h}x{w} (cout {cout}) diverged between T=1 and T={t}"
                );
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Full training epochs: plain and adversarial, every thread count.
// ---------------------------------------------------------------------

fn dataset() -> TrafficDataset {
    let cal = Calendar::new(8, 6, vec![]);
    TrafficDataset::new(
        Corridor::generate_with_calendar(SimConfig::default(), cal),
        DataConfig::default(),
    )
}

fn tiny_cfg(adversarial: bool) -> TrainConfig {
    let mut c = if adversarial {
        TrainConfig::fast_adversarial(FeatureMask::BOTH)
    } else {
        TrainConfig::fast_plain(FeatureMask::BOTH)
    };
    c.epochs = 2;
    c.adv_warmup_epochs = 1;
    c.max_train_samples = Some(32);
    c.batch_size = 16;
    c.seed = 77;
    c
}

/// Trains the hybrid predictor and returns every observable bit: epoch
/// losses, final MSE and test-set prediction bit patterns.
fn train_fingerprint(
    data: &TrafficDataset,
    cfg: &TrainConfig,
    options: &mut TrainOptions<'_>,
) -> (Vec<u32>, Vec<u32>) {
    let mut p = build_predictor(PredictorKind::Hybrid, HyperPreset::Fast, data, cfg.seed);
    let report = train_with_options(p.as_mut(), data, cfg, options).expect("training failed");
    let losses: Vec<u32> = report
        .epochs
        .iter()
        .flat_map(|e| [e.mse.to_bits(), e.p_loss.to_bits(), e.d_loss.to_bits()])
        .collect();
    let eval = evaluate(p.as_mut(), data, cfg.mask, data.test_samples());
    let preds = eval.predictions.iter().map(|v| v.to_bits()).collect();
    (losses, preds)
}

#[test]
fn full_training_epoch_bit_identical_for_any_thread_count() {
    let _guard = pool_lock();
    let data = dataset();
    for adversarial in [false, true] {
        let cfg = tiny_cfg(adversarial);
        let want = with_threads(1, || {
            train_fingerprint(&data, &cfg, &mut TrainOptions::default())
        });
        for &t in &THREAD_COUNTS[1..] {
            let got = with_threads(t, || {
                train_fingerprint(&data, &cfg, &mut TrainOptions::default())
            });
            assert_eq!(
                got, want,
                "training (adversarial={adversarial}) diverged between T=1 and T={t}"
            );
        }
    }
}

/// The composition with PR-2's crash-safety: the durable checkpoint
/// written under T=1 must be byte-for-byte the checkpoint written under
/// T=4 — otherwise a resume on a machine with a different core count
/// would silently fork the trajectory.
#[test]
fn checkpoint_bytes_identical_across_thread_counts() {
    let _guard = pool_lock();
    let data = dataset();
    let cfg = tiny_cfg(true);
    let mut files = Vec::new();
    for t in [1usize, 4] {
        let dir = std::env::temp_dir().join(format!("apots-par-ckpt-t{t}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        with_threads(t, || {
            let mut opts = TrainOptions::checkpointed(&dir, 1, false);
            train_fingerprint(&data, &cfg, &mut opts)
        });
        let store = apots::persist::CheckpointStore::open(&dir).unwrap();
        let bytes = std::fs::read(store.latest_path()).unwrap();
        files.push(bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        files[0] == files[1],
        "checkpoint bytes differ between T=1 and T=4 ({} vs {} bytes)",
        files[0].len(),
        files[1].len()
    );
}

// ---------------------------------------------------------------------
// Pool stress: nested regions and panic propagation under load.
// ---------------------------------------------------------------------

#[test]
fn pool_stress_nested_regions_stay_deterministic() {
    let _guard = pool_lock();
    with_threads(4, || {
        // Outer region fans out 8 tasks; each runs a full blocked matmul
        // whose inner parallel regions must degrade to the serial path
        // (nested regions run inline) and still match the reference.
        let mut rng = seeded(42);
        let a = Tensor::rand_uniform(&[17, 13], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[13, 19], -1.0, 1.0, &mut rng);
        let want = reference::matmul(a.data(), b.data(), 17, 13, 19);
        let mut outs: Vec<Option<Tensor>> = (0..8).map(|_| None).collect();
        let slots: Vec<&mut Option<Tensor>> = outs.iter_mut().collect();
        apots_par::parallel_items(slots, |slot| *slot = Some(a.matmul(&b)));
        for out in outs {
            assert_eq!(out.expect("slot unfilled").data(), want.as_slice());
        }
    });
}

#[test]
fn pool_propagates_worker_panics_to_the_caller() {
    let _guard = pool_lock();
    with_threads(4, || {
        let result = std::panic::catch_unwind(|| {
            apots_par::parallel_for(64, 1, |range| {
                for i in range {
                    if i == 33 {
                        panic!("worker {i} exploded");
                    }
                }
            });
        });
        let payload = result.expect_err("panic must propagate out of the region");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("worker 33 exploded"),
            "unexpected panic payload: {msg:?}"
        );
        // The pool must stay usable after a propagated panic.
        let sum = std::sync::atomic::AtomicUsize::new(0);
        apots_par::parallel_for(100, 8, |range| {
            sum.fetch_add(range.sum::<usize>(), std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 4950);
    });
}
