//! Black-box θ-bounded adversarial attacks on trained APOTS predictors,
//! plus the robustness evaluator behind `apots robustness-report`.
//!
//! The predictors are *black boxes* to an attacker: `Predictor::backward`
//! discards input gradients, and a real adversary perturbing road-sensor
//! readings has no gradient access either (Poudel & Li). Every attack
//! here therefore works from forward queries only, and every candidate it
//! tries passes through [`apots::perturb::apply_speed_deltas`] — the same
//! constraint layer the RDAT defense trains against — so perturbed speeds
//! stay within θ = ±0.3 of their clean values *and* inside the physical
//! envelope `[5, free_flow·1.05]` km/h by construction.
//!
//! # Determinism
//!
//! Attacks are driven by the in-house PCG stream seeded from
//! [`AttackConfig::seed`], run serially on the driving thread, and query
//! the predictor through the thread-count-invariant kernels, so a run is
//! bit-identical across `APOTS_THREADS` and across re-runs at the same
//! seed (property-tested in `tests/attack_invariants.rs`).
//!
//! # Budget
//!
//! [`AttackConfig::budget`] counts *batch forward queries*: every attack
//! spends at most `budget` forwards beyond the one clean-reference
//! forward, and a budget of zero returns the clean inputs bit-identically
//! (no RNG is consumed). Queries are reported per outcome and tallied on
//! the `attack.queries` counter.

use apots::config::PredictorKind;
use apots::perturb::{self, SpeedBounds, DEFAULT_THETA};
use apots::predictor::Predictor;
use apots::InferenceMode;
use apots_tensor::rng::{seeded, Rng, SeededRng};
use apots_tensor::Tensor;
use apots_traffic::{FeatureMask, SampleFeatures, TrafficDataset};

pub mod report;

pub use report::{robustness_report, ReportConfig};

/// The three black-box attack families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Random search: fresh uniform delta vectors, keep the per-sample
    /// best. The query-efficiency floor every other attack must beat.
    RandomSearch,
    /// Greedy coordinate descent: sweep coordinates in a fixed order,
    /// trying the ±θ endpoints on top of the per-sample incumbent
    /// (θ-bounded perturbation objectives are monotone in each
    /// coordinate's |δ|, so endpoints dominate interior values).
    Greedy,
    /// SPSA-style simultaneous perturbation: estimate an ascent direction
    /// from two Rademacher-probe queries per iteration and take a signed
    /// step; the probes double as candidates.
    Spsa,
}

impl AttackKind {
    /// All attacks, in report order.
    pub fn all() -> [Self; 3] {
        [Self::RandomSearch, Self::Greedy, Self::Spsa]
    }

    /// Stable label used in reports, traces and the CLI.
    pub fn label(&self) -> &'static str {
        match self {
            Self::RandomSearch => "random-search",
            Self::Greedy => "greedy",
            Self::Spsa => "spsa",
        }
    }

    /// Parses a [`Self::label`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::all().into_iter().find(|k| k.label() == s)
    }
}

/// One attack run's parameters.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Which attack to run.
    pub kind: AttackKind,
    /// Per-step relative perturbation bound (the paper's θ = 0.3).
    pub theta: f32,
    /// Batch forward queries the attack may spend (0 = no attack).
    pub budget: usize,
    /// PCG seed driving every stochastic choice.
    pub seed: u64,
    /// Feature groups the attacked model sees (perturbation respects the
    /// mask: hidden rows are never touched).
    pub mask: FeatureMask,
    /// Forward lane the attack queries run on. `Exact` (the default)
    /// reproduces every historical attack outcome bit-for-bit; `Int8`
    /// trades a tolerance-bounded accuracy delta for query throughput
    /// (DESIGN.md §15). Both lanes are thread-count invariant, so runs
    /// stay reproducible either way.
    pub mode: InferenceMode,
}

impl AttackConfig {
    /// Paper-bound defaults for `kind`: θ = 0.3, a 64-query budget.
    pub fn new(kind: AttackKind) -> Self {
        Self {
            kind,
            theta: DEFAULT_THETA,
            budget: 64,
            seed: 0xA77AC4,
            mask: FeatureMask::BOTH,
            mode: InferenceMode::Exact,
        }
    }
}

/// What an attack run found.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Mean squared error of the clean inputs, in (km/h)².
    pub clean_mse: f64,
    /// Mean squared error under the per-sample best perturbations found.
    pub attacked_mse: f64,
    /// Batch forward queries actually spent.
    pub queries: u64,
    /// Per-sample best deltas (sample-major, `delta_len` per sample),
    /// in θ-fraction units — feed back through `apply_speed_deltas` to
    /// reproduce the attacked inputs exactly.
    pub deltas: Vec<f32>,
}

impl AttackOutcome {
    /// `attacked_mse / clean_mse` (1.0 when the clean error is zero).
    pub fn degradation(&self) -> f64 {
        if self.clean_mse > 0.0 {
            self.attacked_mse / self.clean_mse
        } else {
            1.0
        }
    }
}

/// Shared query harness: encodes candidate deltas, runs the model, and
/// scores per-sample squared errors in km/h (denormalized — monotone per
/// sample in the normalized error, and the unit the report speaks).
struct Harness<'a> {
    predictor: &'a mut dyn Predictor,
    kind: PredictorKind,
    clean: Vec<SampleFeatures>,
    perturbed: Vec<SampleFeatures>,
    targets: Tensor,
    bounds: SpeedBounds,
    theta: f32,
    mask: FeatureMask,
    per: usize,
    scale: f32,
    mode: InferenceMode,
    queries: u64,
}

impl<'a> Harness<'a> {
    fn new(
        predictor: &'a mut dyn Predictor,
        data: &TrafficDataset,
        samples: &[usize],
        cfg: &AttackConfig,
    ) -> Self {
        assert!(!samples.is_empty(), "attack on an empty sample set");
        let clean: Vec<_> = samples
            .iter()
            .map(|&t| data.features(t, cfg.mask))
            .collect();
        let per = perturb::delta_len(&clean[0]);
        let kind = predictor.kind();
        let (_, targets) = apots::encode::encode_features(kind, &clean);
        let norm = data.speed_norm();
        // Normalized error scales linearly into km/h: err_kmh = scale·err.
        let scale = norm.max() - norm.min();
        // One-time lane setup (quantizes weights for Int8) so no query
        // inside the budgeted loop pays it.
        predictor.prepare(cfg.mode);
        Self {
            predictor,
            kind,
            perturbed: clean.clone(),
            clean,
            targets,
            bounds: SpeedBounds::of(data),
            theta: cfg.theta,
            mask: cfg.mask,
            per,
            scale,
            mode: cfg.mode,
            queries: 0,
        }
    }

    fn n(&self) -> usize {
        self.clean.len()
    }

    /// Per-sample squared errors in (km/h)² for `deltas`; one query.
    fn eval(&mut self, deltas: &[f32]) -> Vec<f64> {
        perturb::apply_speed_deltas(
            &mut self.perturbed,
            &self.clean,
            deltas,
            self.theta,
            self.mask,
            &self.bounds,
        );
        let (input, _) = apots::encode::encode_features(self.kind, &self.perturbed);
        let out = self.predictor.forward_infer(&input, self.mode);
        self.queries += 1;
        apots_obs::metrics::ATTACK_QUERIES.bump();
        (0..self.n())
            .map(|i| {
                let d = f64::from((out.at2(i, 0) - self.targets.at2(i, 0)) * self.scale);
                d * d
            })
            .collect()
    }

    /// Clean per-sample squared errors (the un-budgeted reference query).
    fn clean_err(&mut self) -> Vec<f64> {
        let (input, _) = apots::encode::encode_features(self.kind, &self.clean);
        let out = self.predictor.forward_infer(&input, self.mode);
        (0..self.n())
            .map(|i| {
                let d = f64::from((out.at2(i, 0) - self.targets.at2(i, 0)) * self.scale);
                d * d
            })
            .collect()
    }
}

/// Per-sample incumbent tracker: keeps, for every sample independently,
/// the deltas of the best (most-damaging) candidate seen so far.
struct Best {
    err: Vec<f64>,
    deltas: Vec<f32>,
    per: usize,
}

impl Best {
    fn new(clean_err: &[f64], per: usize) -> Self {
        Self {
            err: clean_err.to_vec(),
            deltas: vec![0.0; per * clean_err.len()],
            per,
        }
    }

    /// Folds a candidate in: samples whose error grew adopt its deltas.
    fn absorb(&mut self, candidate: &[f32], err: &[f64]) {
        for (i, &e) in err.iter().enumerate() {
            if e > self.err[i] {
                self.err[i] = e;
                self.deltas[i * self.per..(i + 1) * self.per]
                    .copy_from_slice(&candidate[i * self.per..(i + 1) * self.per]);
            }
        }
    }

    fn mean(&self) -> f64 {
        self.err.iter().sum::<f64>() / self.err.len().max(1) as f64
    }
}

/// Runs one black-box attack against `predictor` over `samples`.
///
/// Returns the clean/attacked MSE (km/h²), the per-sample best deltas and
/// the number of forward queries spent. With `budget == 0` the outcome is
/// the clean measurement bit-identically and no RNG is consumed.
pub fn run_attack(
    predictor: &mut dyn Predictor,
    data: &TrafficDataset,
    samples: &[usize],
    cfg: &AttackConfig,
) -> AttackOutcome {
    let _span = apots_obs::span("attack.run", true);
    let mut h = Harness::new(predictor, data, samples, cfg);
    let clean_err = h.clean_err();
    let mut best = Best::new(&clean_err, h.per);

    if cfg.budget > 0 {
        let mut rng = seeded(cfg.seed ^ 0xA77A_C000 ^ cfg.kind.label().len() as u64);
        match cfg.kind {
            AttackKind::RandomSearch => random_search(&mut h, &mut best, &mut rng, cfg.budget),
            AttackKind::Greedy => greedy(&mut h, &mut best, cfg.budget),
            AttackKind::Spsa => spsa(&mut h, &mut best, &mut rng, cfg.budget),
        }
    }

    let clean_mse = clean_err.iter().sum::<f64>() / clean_err.len().max(1) as f64;
    let attacked_mse = best.mean();
    apots_obs::metrics::ATTACK_RUNS.bump();
    if apots_obs::enabled() {
        apots_obs::value2("attack.mse", true, clean_mse, attacked_mse);
    }
    AttackOutcome {
        clean_mse,
        attacked_mse,
        queries: h.queries,
        deltas: best.deltas,
    }
}

fn random_search(h: &mut Harness<'_>, best: &mut Best, rng: &mut SeededRng, budget: usize) {
    let mut candidate = vec![0.0f32; h.per * h.n()];
    for _ in 0..budget {
        for d in candidate.iter_mut() {
            *d = rng.random_range(-1.0f32..1.0);
        }
        let err = h.eval(&candidate);
        best.absorb(&candidate, &err);
    }
}

fn greedy(h: &mut Harness<'_>, best: &mut Best, budget: usize) {
    let mut spent = 0usize;
    let mut candidate = vec![0.0f32; h.per * h.n()];
    'outer: loop {
        let before = best.err.clone();
        for coord in 0..h.per {
            for endpoint in [1.0f32, -1.0] {
                if spent >= budget {
                    break 'outer;
                }
                candidate.copy_from_slice(&best.deltas);
                for i in 0..h.n() {
                    candidate[i * h.per + coord] = endpoint;
                }
                let err = h.eval(&candidate);
                best.absorb(&candidate, &err);
                spent += 1;
            }
        }
        // A full sweep that moved no sample has converged; further
        // sweeps would replay identical queries.
        if best.err == before {
            break;
        }
    }
}

fn spsa(h: &mut Harness<'_>, best: &mut Best, rng: &mut SeededRng, budget: usize) {
    const C: f32 = 0.5; // probe radius (θ-fractions)
    const A: f32 = 0.25; // step size
    let n = h.per * h.n();
    let mut x = vec![0.0f32; n];
    let mut dir = vec![0.0f32; n];
    let mut probe = vec![0.0f32; n];
    let mut spent = 0usize;
    while spent + 2 <= budget {
        for d in dir.iter_mut() {
            *d = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        }
        for (p, (&xi, &di)) in probe.iter_mut().zip(x.iter().zip(&dir)) {
            *p = (xi + C * di).clamp(-1.0, 1.0);
        }
        let err_plus = h.eval(&probe);
        best.absorb(&probe, &err_plus);
        for (p, (&xi, &di)) in probe.iter_mut().zip(x.iter().zip(&dir)) {
            *p = (xi - C * di).clamp(-1.0, 1.0);
        }
        let err_minus = h.eval(&probe);
        best.absorb(&probe, &err_minus);
        spent += 2;
        for i in 0..h.n() {
            let sign = (err_plus[i] - err_minus[i]).signum() as f32;
            for k in 0..h.per {
                let j = i * h.per + k;
                x[j] = (x[j] + A * sign * dir[j]).clamp(-1.0, 1.0);
            }
        }
    }
    if spent < budget {
        let err = h.eval(&x);
        best.absorb(&x, &err);
    }
}
