//! Property-based tests for the neural substrate: loss laws, optimizer
//! contraction on convex problems, and shape stability under random
//! architectures. Ported from `proptest` to the in-house `apots-check`
//! harness (64 cases per property) with every law intact.

use apots_check::{check, prop_assert, prop_assert_eq, Rng};
use apots_nn::layer::Layer;
use apots_nn::loss::{bce_with_logits, mse};
use apots_nn::optim::{Adam, Optimizer};
use apots_nn::{Dense, Relu, Sequential};
use apots_tensor::rng::seeded;
use apots_tensor::Tensor;

/// MSE is non-negative, zero iff inputs match, and symmetric.
#[test]
fn mse_laws() {
    check(
        "mse laws",
        |rng| apots_check::gen::vec_f32_pair(rng, -10.0..10.0, 1..32),
        |(a, b)| {
            let ta = Tensor::from_vec(a.clone());
            let tb = Tensor::from_vec(b.clone());
            let (lab, _) = mse(&ta, &tb);
            let (lba, _) = mse(&tb, &ta);
            prop_assert!(lab >= 0.0);
            prop_assert!((lab - lba).abs() < 1e-4, "not symmetric: {lab} vs {lba}");
            let (self_loss, _) = mse(&ta, &ta);
            prop_assert_eq!(self_loss, 0.0);
            Ok(())
        },
    );
}

/// BCE-with-logits is non-negative and finite for any logits/labels.
#[test]
fn bce_bounds() {
    check(
        "bce bounds",
        |rng| {
            let n = rng.random_range(1usize..32);
            let z: Vec<f32> = (0..n).map(|_| rng.random_range(-80.0f32..80.0)).collect();
            let y: Vec<f32> = (0..n).map(|_| rng.random_range(0.0f32..1.0)).collect();
            (z, y)
        },
        |(z, y)| {
            let (loss, grad) =
                bce_with_logits(&Tensor::from_vec(z.clone()), &Tensor::from_vec(y.clone()));
            prop_assert!(loss >= -1e-6, "negative loss {loss}");
            prop_assert!(loss.is_finite());
            prop_assert!(grad.data().iter().all(|g| g.is_finite()));
            Ok(())
        },
    );
}

/// Adam on an MSE gradient contracts a 1-D quadratic.
#[test]
fn optimizers_contract_quadratic() {
    check(
        "optimizers contract quadratic",
        |rng| {
            (
                rng.random_range(-5.0f32..5.0),
                rng.random_range(-5.0f32..5.0),
            )
        },
        |&(start, target)| {
            let mut w = Tensor::from_vec(vec![start]);
            let mut opt = Adam::new(0.2);
            for _ in 0..200 {
                let mut g = Tensor::from_vec(vec![2.0 * (w.data()[0] - target)]);
                opt.step(vec![apots_nn::Param {
                    value: &mut w,
                    grad: &mut g,
                }]);
            }
            prop_assert!(
                (w.data()[0] - target).abs() < 0.05,
                "{} !→ {target}",
                w.data()[0]
            );
            Ok(())
        },
    );
}

/// Randomly-shaped MLPs preserve batch size and emit finite outputs.
#[test]
fn random_mlp_shapes() {
    check(
        "random mlp shapes",
        |rng| {
            let depth = rng.random_range(1usize..4);
            let widths: Vec<usize> = (0..depth).map(|_| rng.random_range(1usize..24)).collect();
            let batch = rng.random_range(1usize..16);
            (widths, batch, rng.random::<u64>())
        },
        |(widths, batch, seed)| {
            apots_check::prop_assume!(!widths.is_empty() && *batch > 0);
            apots_check::prop_assume!(widths.iter().all(|&w| w > 0));
            let mut rng = seeded(*seed);
            let mut net = Sequential::new();
            let mut prev = 7usize;
            for &w in widths {
                net.add(Box::new(Dense::new(prev, w, &mut rng)));
                net.add(Box::new(Relu::new()));
                prev = w;
            }
            let x = Tensor::randn(&[*batch, 7], 0.0, 1.0, &mut rng);
            let y = net.forward(&x);
            prop_assert_eq!(y.shape(), &[*batch, prev]);
            prop_assert!(y.data().iter().all(|v| v.is_finite()));
            let dx = net.backward(&Tensor::ones(&[*batch, prev]));
            prop_assert_eq!(dx.shape(), &[*batch, 7usize]);
            Ok(())
        },
    );
}
