//! **Into-kernel property suite** — the bit-equality side of the
//! workspace-arena contract (DESIGN.md §10, acceptance item for the
//! allocation-free hot path).
//!
//! Every `_into` kernel the arena-backed layers use must be **bit-identical**
//! to (a) its allocating twin and (b) the naive serial reference in
//! [`apots_tensor::reference`] — same f32 accumulation chain, element for
//! element (DESIGN.md §9). This suite drives all of them over seeded random
//! shapes at `APOTS_THREADS ∈ {1, 4}`, comparing raw `to_bits()`, so any
//! reassociation, zero-skip shortcut, or stray fused-multiply-add shows up
//! as a hard failure rather than a tolerance blur.
//!
//! Layer-level fusion (the LSTM fused gate loop) is pinned here too:
//! forward outputs, backward input-gradients and parameter gradients must
//! not depend on the thread count. Full-epoch trainer equality lives in
//! `epoch_equality.rs`; this file is the kernel-granularity half.

use apots_nn::layer::Layer;
use apots_nn::Lstm;
use apots_tensor::rng::{seeded, Rng, SeededRng};
use apots_tensor::{reference, Tensor};

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Uniform random tensor in `[-1, 1)` — exercises signs and subnormals
/// enough to catch reassociation without manufacturing NaNs.
fn rand_tensor(rng: &mut SeededRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    let data = (0..len)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect::<Vec<f32>>();
    Tensor::new(shape, data)
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at flat index {i}: {x:?} vs {y:?}"
        );
    }
}

fn assert_slice_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at flat index {i}: {x:?} vs {y:?}"
        );
    }
}

/// Runs `body` once per entry of [`THREAD_COUNTS`], pinning the pool width
/// for the duration so the property covers both the serial fast path and
/// the work-stealing schedule.
fn for_each_thread_count(mut body: impl FnMut(usize)) {
    for &t in &THREAD_COUNTS {
        apots_par::set_threads(t);
        body(t);
        apots_par::reset_threads();
    }
}

// ---------------------------------------------------------------------------
// Matmul family: allocating twin + `_into` + serial reference, all equal.
// ---------------------------------------------------------------------------

#[test]
fn matmul_into_matches_allocating_and_reference() {
    for_each_thread_count(|t| {
        let mut rng = seeded(0xA11C_0001);
        for trial in 0..24 {
            let m = rng.random_range(1usize..=17);
            let k = rng.random_range(1usize..=23);
            let n = rng.random_range(1usize..=19);
            let a = rand_tensor(&mut rng, &[m, k]);
            let b = rand_tensor(&mut rng, &[k, n]);

            let alloc = a.matmul(&b);
            let mut into = Tensor::zeros(&[m, n]);
            a.matmul_into(&b, &mut into);
            let reference = reference::matmul(a.data(), b.data(), m, k, n);

            let what = format!("matmul t={t} trial={trial} [{m}x{k}]·[{k}x{n}]");
            assert_bits_eq(&alloc, &into, &format!("{what} (into vs alloc)"));
            assert_slice_bits_eq(alloc.data(), &reference, &format!("{what} (vs reference)"));
        }
    });
}

#[test]
fn matmul_at_b_into_matches_allocating_and_reference() {
    for_each_thread_count(|t| {
        let mut rng = seeded(0xA11C_0002);
        for trial in 0..24 {
            let k = rng.random_range(1usize..=17);
            let m = rng.random_range(1usize..=23);
            let n = rng.random_range(1usize..=19);
            // A is [k, m]: the op computes Aᵀ·B = [m, n].
            let a = rand_tensor(&mut rng, &[k, m]);
            let b = rand_tensor(&mut rng, &[k, n]);

            let alloc = a.matmul_at_b(&b);
            let mut into = Tensor::zeros(&[m, n]);
            a.matmul_at_b_into(&b, &mut into);
            let reference = reference::matmul_at_b(a.data(), b.data(), k, m, n);

            let what = format!("matmul_at_b t={t} trial={trial} [{k}x{m}]ᵀ·[{k}x{n}]");
            assert_bits_eq(&alloc, &into, &format!("{what} (into vs alloc)"));
            assert_slice_bits_eq(alloc.data(), &reference, &format!("{what} (vs reference)"));
        }
    });
}

#[test]
fn matmul_a_bt_into_matches_allocating_and_reference() {
    for_each_thread_count(|t| {
        let mut rng = seeded(0xA11C_0003);
        for trial in 0..24 {
            let m = rng.random_range(1usize..=17);
            let k = rng.random_range(1usize..=23);
            let n = rng.random_range(1usize..=19);
            // B is [n, k]: the op computes A·Bᵀ = [m, n].
            let a = rand_tensor(&mut rng, &[m, k]);
            let b = rand_tensor(&mut rng, &[n, k]);

            let alloc = a.matmul_a_bt(&b);
            let mut into = Tensor::zeros(&[m, n]);
            a.matmul_a_bt_into(&b, &mut into);
            let reference = reference::matmul_a_bt(a.data(), b.data(), m, k, n);

            let what = format!("matmul_a_bt t={t} trial={trial} [{m}x{k}]·[{n}x{k}]ᵀ");
            assert_bits_eq(&alloc, &into, &format!("{what} (into vs alloc)"));
            assert_slice_bits_eq(alloc.data(), &reference, &format!("{what} (vs reference)"));
        }
    });
}

/// The matmul family must also be invariant across thread counts: the
/// T=1 and T=4 results of the same inputs are the same bits.
#[test]
fn matmul_family_is_thread_count_invariant() {
    let mut rng = seeded(0xA11C_0004);
    for trial in 0..12 {
        let m = rng.random_range(1usize..=31);
        let k = rng.random_range(1usize..=29);
        let n = rng.random_range(1usize..=27);
        let a = rand_tensor(&mut rng, &[m, k]);
        let b = rand_tensor(&mut rng, &[k, n]);

        let mut per_thread = Vec::new();
        for_each_thread_count(|_| per_thread.push(a.matmul(&b)));
        assert_bits_eq(
            &per_thread[0],
            &per_thread[1],
            &format!("matmul thread invariance trial={trial}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Elementwise / reduction `_into` twins.
// ---------------------------------------------------------------------------

#[test]
fn elementwise_into_twins_match() {
    for_each_thread_count(|t| {
        let mut rng = seeded(0xA11C_0005);
        for trial in 0..24 {
            let r = rng.random_range(1usize..=13);
            let c = rng.random_range(1usize..=37);
            let a = rand_tensor(&mut rng, &[r, c]);
            let b = rand_tensor(&mut rng, &[r, c]);
            let what = |op: &str| format!("{op} t={t} trial={trial} [{r}x{c}]");

            let mut out = Tensor::zeros(&[r, c]);

            a.map_into(&mut out, |v| v.tanh());
            assert_bits_eq(&a.map(|v| v.tanh()), &out, &what("map_into(tanh)"));

            a.zip_with_into(&b, &mut out, |x, y| x * y + x);
            assert_bits_eq(
                &a.zip_with(&b, |x, y| x * y + x),
                &out,
                &what("zip_with_into"),
            );

            a.add_into(&b, &mut out);
            assert_bits_eq(&a.add(&b), &out, &what("add_into"));

            a.mul_into(&b, &mut out);
            assert_bits_eq(&a.mul(&b), &out, &what("mul_into"));

            let mut sum = Tensor::zeros(&[c]);
            a.sum_axis0_into(&mut sum);
            assert_bits_eq(&a.sum_axis0(), &sum, &what("sum_axis0_into"));
        }
    });
}

#[test]
fn time_slice_into_matches_manual_gather() {
    for_each_thread_count(|t| {
        let mut rng = seeded(0xA11C_0006);
        for trial in 0..24 {
            let b = rng.random_range(1usize..=9);
            let steps = rng.random_range(1usize..=11);
            let feat = rng.random_range(1usize..=15);
            let x = rand_tensor(&mut rng, &[b, steps, feat]);
            let step = rng.random_range(0usize..steps);

            let mut out = Tensor::zeros(&[b, feat]);
            x.time_slice_into(step, &mut out);

            // Manual strided gather — the semantic definition.
            let mut want = vec![0.0f32; b * feat];
            for bi in 0..b {
                let src = bi * steps * feat + step * feat;
                want[bi * feat..(bi + 1) * feat].copy_from_slice(&x.data()[src..src + feat]);
            }
            assert_slice_bits_eq(
                out.data(),
                &want,
                &format!("time_slice_into t={t} trial={trial} [{b}x{steps}x{feat}]@{step}"),
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Fused RNN layers: forward / backward / param grads invariant across
// thread counts (the fused gate loops share one serial chain per element).
// ---------------------------------------------------------------------------

/// One forward+backward through a freshly seeded layer, returning
/// `(output, dx, all parameter gradient bits)`.
fn rnn_round<L: Layer>(
    mut make: impl FnMut(&mut SeededRng) -> L,
    input: &Tensor,
    grad_seed: u64,
) -> (Tensor, Tensor, Vec<u32>) {
    let mut rng = seeded(0x5EED_F00D);
    let mut layer = make(&mut rng);
    let out = layer.forward(input);
    let mut grng = seeded(grad_seed);
    let grad = rand_tensor(&mut grng, out.shape());
    let dx = layer.backward(&grad);
    let grads = layer
        .params_mut()
        .iter()
        .flat_map(|p| p.grad.data().iter().map(|v| v.to_bits()))
        .collect();
    (out, dx, grads)
}

#[test]
fn fused_lstm_is_thread_count_invariant() {
    let mut rng = seeded(0xA11C_0007);
    for &return_sequences in &[false, true] {
        let b = rng.random_range(2usize..=6);
        let steps = rng.random_range(2usize..=7);
        let input_size = rng.random_range(3usize..=9);
        let hidden = rng.random_range(3usize..=11);
        let x = rand_tensor(&mut rng, &[b, steps, input_size]);

        let mut runs = Vec::new();
        for_each_thread_count(|_| {
            runs.push(rnn_round(
                |r| Lstm::new(input_size, hidden, return_sequences, r),
                &x,
                0xBEEF,
            ));
        });
        let what = format!("Lstm seq={return_sequences} [{b}x{steps}x{input_size}]→{hidden}");
        assert_bits_eq(&runs[0].0, &runs[1].0, &format!("{what} forward"));
        assert_bits_eq(&runs[0].1, &runs[1].1, &format!("{what} dx"));
        assert_eq!(runs[0].2, runs[1].2, "{what} param grads");
    }
}
