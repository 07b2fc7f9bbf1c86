//! # apots-experiments
//!
//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the APOTS paper:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_cases` | Fig 1 — abrupt-change case studies |
//! | `fig4_adversarial` | Fig 4 — effect of adversarial training |
//! | `fig5_additional_data` | Fig 5 — effect of additional data |
//! | `table2_nonspeed` | Table II — non-speed factor ablation (APOTS H) |
//! | `table3_full_grid` | Table III — the full model × data × training grid |
//! | `fig6_traces` | Fig 6 — predicted-vs-real traces on the Fig 1 cases |
//! | `ablations` | design-choice checks beyond the paper |
//!
//! Every binary is deterministic under `APOTS_SEED`, prints the paper's
//! rows/series to stdout and appends a JSON record under `results/`.

pub mod network;

use std::path::PathBuf;
use std::time::Instant;

use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::eval::{evaluate, EvalResult};
use apots::predictor::{build_predictor, Predictor};
use apots::runtime::{config_fingerprint, TrainOptions};
use apots::trainer::{train_with_options, TrainReport};
use apots_serde::atomic::write_atomic;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

/// Environment-tunable experiment settings.
#[derive(Debug, Clone)]
pub struct Env {
    /// Hyper-parameter preset (`APOTS_PRESET` = `fast` | `paper`).
    pub preset: HyperPreset,
    /// Master seed (`APOTS_SEED`).
    pub seed: u64,
    /// Epoch override (`APOTS_EPOCHS`).
    pub epochs: Option<usize>,
    /// Per-epoch sample-cap override (`APOTS_MAX_SAMPLES`).
    pub max_samples: Option<usize>,
    /// Root directory for durable training checkpoints
    /// (`APOTS_CHECKPOINT_DIR`); each run gets a fingerprint-named
    /// subdirectory, so a grid of runs never collides. Unset = no
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in epochs (`APOTS_SAVE_EVERY`, default 1).
    pub save_every: usize,
    /// Resume interrupted runs from their checkpoints (`APOTS_RESUME` =
    /// `1` | `true`; `0` | `false` or unset = start fresh).
    pub resume: bool,
}

impl Env {
    /// Reads the environment; unset variables take defaults.
    ///
    /// Also arms structured telemetry when `APOTS_TRACE=<path>` is set
    /// and the fault-injection plane when `APOTS_FAULTS=<spec>` is set
    /// (every experiment binary calls `from_env` first, so this is the
    /// single opt-in point; tracing never changes numerical results).
    ///
    /// # Panics
    /// Panics on a malformed `APOTS_FAULTS` spec or a malformed value of
    /// any variable above — a typo'd knob must never silently run the
    /// default configuration.
    pub fn from_env() -> Self {
        let _ = apots_obs::init_from_env();
        match apots_faults::FaultSpec::from_env() {
            Ok(Some(spec)) => {
                apots_faults::arm(spec);
            }
            Ok(None) => {}
            Err(e) => panic!("{e}"),
        }
        match Self::from_vars(|name| std::env::var(name).ok()) {
            Ok(env) => env,
            Err(e) => panic!("{e}"),
        }
    }

    /// Parses the settings from `lookup`, which reads one variable by
    /// name. An unset or empty variable keeps its default; a set value
    /// that does not parse — `APOTS_PRESET` other than `fast` / `paper`,
    /// `APOTS_RESUME` other than `0` / `1` / `false` / `true`, or a
    /// non-integer `APOTS_SEED`, `APOTS_EPOCHS`, `APOTS_MAX_SAMPLES` or
    /// `APOTS_SAVE_EVERY` — is an error naming the variable, the value and
    /// the accepted form.
    fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let var = |name: &str| lookup(name).filter(|v| !v.is_empty());
        fn integer<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{name}={value:?}: expected a non-negative integer"))
        }
        let preset = var("APOTS_PRESET").map_or(Ok(HyperPreset::Fast), |v| {
            HyperPreset::parse(&v).map_err(|e| format!("APOTS_PRESET={e}"))
        })?;
        let seed = var("APOTS_SEED").map_or(Ok(7), |v| integer("APOTS_SEED", &v))?;
        let epochs = var("APOTS_EPOCHS")
            .map(|v| integer("APOTS_EPOCHS", &v))
            .transpose()?;
        let max_samples = var("APOTS_MAX_SAMPLES")
            .map(|v| integer("APOTS_MAX_SAMPLES", &v))
            .transpose()?;
        let checkpoint_dir = var("APOTS_CHECKPOINT_DIR").map(PathBuf::from);
        let save_every =
            var("APOTS_SAVE_EVERY").map_or(Ok(1), |v| integer("APOTS_SAVE_EVERY", &v))?;
        let resume = match var("APOTS_RESUME").as_deref() {
            None | Some("0") | Some("false") => false,
            Some("1") | Some("true") => true,
            Some(other) => {
                return Err(format!(
                    "APOTS_RESUME={other:?}: expected 0, 1, false or true"
                ));
            }
        };
        Ok(Self {
            preset,
            seed,
            epochs,
            max_samples,
            checkpoint_dir,
            save_every,
            resume,
        })
    }

    /// Builds [`TrainOptions`] for one `(kind, config)` run: when
    /// [`Env::checkpoint_dir`] is set, the run checkpoints into a
    /// subdirectory named after its config fingerprint (`ck_<hex>`), so
    /// experiment grids never mix checkpoints between runs.
    pub fn train_options(
        &self,
        kind: PredictorKind,
        config: &TrainConfig,
    ) -> TrainOptions<'static> {
        match &self.checkpoint_dir {
            Some(root) => {
                let sub = root.join(format!("ck_{:016x}", config_fingerprint(kind, config)));
                TrainOptions::checkpointed(sub, self.save_every, self.resume)
            }
            None => TrainOptions::default(),
        }
    }

    /// Applies the overrides to a training config.
    pub fn tune(&self, mut config: TrainConfig) -> TrainConfig {
        if let Some(e) = self.epochs {
            config.epochs = e;
        }
        if let Some(m) = self.max_samples {
            config.max_train_samples = Some(m);
        }
        config.seed = self.seed;
        config
    }
}

/// Builds the paper-scale dataset: a 122-day corridor with the default
/// simulator, split 80/20 with overlap discarding.
pub fn build_dataset(seed: u64) -> TrafficDataset {
    let sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let data = DataConfig {
        seed: seed ^ 0xDA7A,
        ..DataConfig::default()
    };
    TrafficDataset::new(Corridor::generate(sim), data)
}

/// The outcome of training and evaluating one model configuration.
pub struct RunOutcome {
    /// Test-set evaluation.
    pub eval: EvalResult,
    /// Training statistics.
    pub report: TrainReport,
    /// Wall-clock training time in seconds.
    pub train_secs: f64,
}

/// Trains a predictor per `config` and evaluates it on the test set.
pub fn run_model(
    data: &TrafficDataset,
    kind: PredictorKind,
    preset: HyperPreset,
    config: &TrainConfig,
) -> RunOutcome {
    let (_, outcome) = run_model_keep(data, kind, preset, config);
    outcome
}

/// Trains a predictor and returns it together with the outcome (for trace
/// experiments that keep predicting afterwards). Honors the env-driven
/// checkpoint settings ([`Env::train_options`]) so a killed experiment
/// binary restarts from its last durable epoch instead of from scratch.
pub fn run_model_keep(
    data: &TrafficDataset,
    kind: PredictorKind,
    preset: HyperPreset,
    config: &TrainConfig,
) -> (Box<dyn Predictor>, RunOutcome) {
    let env = Env::from_env();
    let mut options = env.train_options(kind, config);
    let mut predictor = build_predictor(kind, preset, data, config.seed);
    let start = Instant::now();
    let report = match train_with_options(predictor.as_mut(), data, config, &mut options) {
        Ok(report) => report,
        Err(e) => panic!("training {kind:?} failed: {e}"),
    };
    let train_secs = start.elapsed().as_secs_f64();
    let eval = evaluate(predictor.as_mut(), data, config.mask, data.test_samples());
    // Push evaluation-phase telemetry (kernel counters from `evaluate`)
    // out to the sink; the trainer already drained at epoch boundaries.
    apots_obs::drain_and_flush();
    (
        predictor,
        RunOutcome {
            eval,
            report,
            train_secs,
        },
    )
}

/// Fans a batch of independent jobs across the `apots-par` pool and
/// collects the results **in input order** — the generalized grid
/// runner. One pool task per job; within a job the kernels execute on
/// the worker's thread (nested parallel regions run inline), so every
/// job computes exactly what it would have computed alone and the
/// output is bit-identical to running the jobs serially. A panic inside
/// any job propagates to the caller.
///
/// [`run_grid`] (the Table-III grid over one shared dataset) and the
/// network scenario engine's per-segment fan-out
/// ([`network::network_report`]) are both instances of this runner.
pub fn fan_out<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    {
        let items: Vec<(&mut Option<R>, T)> = slots.iter_mut().zip(jobs).collect();
        apots_par::parallel_items(items, |(slot, job)| {
            *slot = Some(f(job));
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("fan-out job did not produce a result"))
        .collect()
}

/// Trains and evaluates a batch of `(kind, config)` runs, fanning them
/// out across the `apots-par` pool — one task per run, so a Table-III
/// style grid uses every core instead of crawling through 16 configs
/// serially. Outcomes come back in input order, bit-identical to the
/// serial grid (see [`fan_out`]).
pub fn run_grid(
    data: &TrafficDataset,
    preset: HyperPreset,
    jobs: &[(PredictorKind, TrainConfig)],
) -> Vec<RunOutcome> {
    fan_out(
        jobs.iter().collect(),
        |(kind, config): &(PredictorKind, TrainConfig)| run_model(data, *kind, preset, config),
    )
}

/// Renders a markdown-style table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Appends a JSON record of an experiment's outputs under `results/`.
///
/// The write goes through the crash-safe atomic writer, so a killed
/// experiment binary never leaves a torn half-document behind — readers
/// see the previous record or the new one, nothing in between.
pub fn save_json(name: &str, value: &apots_serde::Json) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create results/; skipping JSON dump");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match write_atomic(&path, &value.to_string_pretty()) {
        Ok(()) => println!("\n[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Formats an optional MAPE cell.
pub fn fmt_mape(v: f32) -> String {
    if v.is_nan() {
        "–".to_string()
    } else {
        format!("{v:.2}")
    }
}

/// ASCII sparkline of a speed series (used by the figure binaries to show
/// traces without a plotting stack).
pub fn sparkline(values: &[f32], lo: f32, hi: f32) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|&v| {
            let z = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
            BARS[((z * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// Per-kind plain-training budget. **Matched to [`adv_cfg`]**: the paper
/// trains both columns to convergence; on a CPU budget the fair proxy is
/// an identical epoch × sample budget for the "w/o Adv." and "w/ Adv."
/// runs of each predictor. FC steps are ~10x cheaper than the
/// recurrent/conv models, so F gets proportionally more epochs — each
/// architecture then reaches the regime where additional data helps
/// (undertrained wide-input models look spuriously worse).
pub fn plain_cfg(kind: PredictorKind, mask: FeatureMask, env: &Env) -> TrainConfig {
    let mut cfg = TrainConfig::fast_plain(mask);
    match kind {
        PredictorKind::Fc => {
            cfg.epochs = 20;
            cfg.max_train_samples = Some(8192);
        }
        _ => {
            cfg.epochs = 12;
            cfg.max_train_samples = Some(4096);
        }
    }
    env.tune(cfg)
}

/// Per-kind adversarial-training budget, epoch-for-epoch matched with
/// [`plain_cfg`] (the first half of the epochs are the pure-MSE warm-up).
pub fn adv_cfg(kind: PredictorKind, mask: FeatureMask, env: &Env) -> TrainConfig {
    let mut cfg = TrainConfig::fast_adversarial(mask);
    match kind {
        PredictorKind::Fc => {
            cfg.epochs = 20;
            cfg.adv_warmup_epochs = 10;
            cfg.max_train_samples = Some(8192);
        }
        _ => {
            cfg.epochs = 12;
            cfg.adv_warmup_epochs = 6;
            cfg.max_train_samples = Some(4096);
        }
    }
    env.tune(cfg)
}

/// Masks in Table III's column order with the paper's labels.
pub fn table3_masks() -> [(&'static str, FeatureMask); 2] {
    [
        ("Speed only", FeatureMask::SPEED_ONLY),
        ("Speed+Add. data", FeatureMask::BOTH),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Env::from_vars` over a fixed variable list, leaving the process
    /// environment alone.
    fn env_with(vars: &[(&str, &str)]) -> Result<Env, String> {
        Env::from_vars(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn env_defaults() {
        let env = env_with(&[]).unwrap();
        assert_eq!(env.seed, 7);
        assert_eq!(env.preset, HyperPreset::Fast);
        assert_eq!((env.epochs, env.max_samples), (None, None));
        assert_eq!((env.save_every, env.resume), (1, false));
        assert!(env.checkpoint_dir.is_none());
        let cfg = env.tune(TrainConfig::fast_plain(FeatureMask::BOTH));
        assert_eq!(cfg.seed, 7);
        // An empty value is unset, not malformed.
        assert_eq!(env_with(&[("APOTS_EPOCHS", "")]).unwrap().epochs, None);

        let env = env_with(&[
            ("APOTS_PRESET", "paper"),
            ("APOTS_SEED", "11"),
            ("APOTS_EPOCHS", "3"),
            ("APOTS_MAX_SAMPLES", "64"),
            ("APOTS_SAVE_EVERY", "2"),
        ])
        .unwrap();
        assert_eq!(env.preset, HyperPreset::Paper);
        assert_eq!(
            (env.seed, env.epochs, env.max_samples),
            (11, Some(3), Some(64))
        );
        assert_eq!(env.save_every, 2);

        for (value, resume) in [("0", false), ("false", false), ("1", true), ("true", true)] {
            assert_eq!(env_with(&[("APOTS_RESUME", value)]).unwrap().resume, resume);
        }
    }

    #[test]
    fn env_refuses_malformed_values_by_name() {
        for (name, value, form) in [
            ("APOTS_PRESET", "Paper", "expected fast or paper"),
            ("APOTS_SEED", "0x7", "expected a non-negative integer"),
            ("APOTS_EPOCHS", "ten", "expected a non-negative integer"),
            ("APOTS_MAX_SAMPLES", "-1", "expected a non-negative integer"),
            ("APOTS_SAVE_EVERY", "1.5", "expected a non-negative integer"),
            ("APOTS_RESUME", "yes", "expected 0, 1, false or true"),
            ("APOTS_RESUME", "TRUE", "expected 0, 1, false or true"),
        ] {
            let err = env_with(&[(name, value)]).unwrap_err();
            assert_eq!(err, format!("{name}={value:?}: {form}"));
        }
    }

    #[test]
    fn sparkline_renders_extremes() {
        let s = sparkline(&[0.0, 50.0, 100.0], 0.0, 100.0);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn fmt_mape_handles_nan() {
        assert_eq!(fmt_mape(f32::NAN), "–");
        assert_eq!(fmt_mape(12.804), "12.80");
    }
}
