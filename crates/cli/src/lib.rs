//! `apots-cli` — command-line interface for the APOTS reproduction.
//!
//! ```text
//! apots-cli simulate --days 28 --seed 7 --out corridor.json
//! apots-cli train    --kind H --adversarial --epochs 6 --out model.json
//! apots-cli eval     --model model.json
//! apots-cli predict  --model model.json --from 06:30 --to 08:30 --day 5
//! ```
//!
//! All subcommands regenerate the (deterministic) simulated corridor from
//! `--seed`, so only model parameters need to be persisted.

use std::process::ExitCode;

use apots::checkpoint::Checkpoint;
use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::degrade::{degradation_report, DegradeConfig};
use apots::eval::{evaluate, predict_trace};
use apots::predictor::build_predictor;
use apots::runtime::TrainOptions;
use apots::trainer::train_with_options;
use apots_attack::{robustness_report, run_attack, AttackConfig, AttackKind, ReportConfig};
use apots_experiments::network::{generate_corpus, network_report, NetworkRunConfig};
use apots_serde::atomic::write_atomic;
use apots_serde::{Json, Map};
use apots_traffic::calendar::Calendar;
use apots_traffic::{
    Corridor, DataConfig, FeatureMask, ScenarioSpec, SimConfig, TrafficDataset, INTERVALS_PER_DAY,
};

mod args;
mod bench_gate;

use args::Args;

/// Entry point shared by the `apots-cli` and `apots` binaries (the
/// latter is a short alias so the documented `apots metrics-summary`
/// invocation works).
pub fn cli_main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage: apots-cli <command> [options]\n\
     \n\
     commands:\n\
     \x20 simulate   generate a corridor and print summary statistics\n\
     \x20            [--days N] [--seed N] [--out FILE]\n\
     \x20 train      train a predictor and write a checkpoint\n\
     \x20            [--kind F|L|C|H] [--adversarial] [--epochs N]\n\
     \x20            [--days N] [--seed N] [--preset fast|paper] --out FILE\n\
     \x20            [--checkpoint-dir DIR] [--save-every N] [--resume]\n\
     \x20            (crash-safe: checkpoints are written atomically with a\n\
     \x20            checksum; --resume continues an interrupted run and\n\
     \x20            reproduces the uninterrupted result exactly)\n\
     \x20 eval       evaluate a checkpoint on the held-out test windows\n\
     \x20            --model FILE [--days N] [--seed N] [--json]\n\
     \x20 predict    print a predicted speed trace for a time window\n\
     \x20            --model FILE --day N --from HH:MM --to HH:MM\n\
     \x20 serve      run the online inference service (HTTP/1.1)\n\
     \x20            --model FILE [--addr HOST:PORT] [--workers N]\n\
     \x20            [--watch DIR] [--poll-ms N] [--days N] [--seed N]\n\
     \x20            [--preset fast|paper] [--quant off|int8]\n\
     \x20            (each of the N workers answers its connections'\n\
     \x20            requests on the one shared model; --watch hot-swaps\n\
     \x20            checkpoints from a rotation dir; torn or corrupt\n\
     \x20            checkpoints are rejected and the old model keeps\n\
     \x20            serving — see DESIGN.md §14; --quant picks the\n\
     \x20            inference lane: off = bit-exact training kernels,\n\
     \x20            int8 = quantized weights — §15; any other option\n\
     \x20            is refused)\n\
     \x20 attack     run a θ-bounded black-box attack on a checkpoint\n\
     \x20            --model FILE [--attack random-search|greedy|spsa]\n\
     \x20            [--budget N] [--theta X] [--samples N] [--json]\n\
     \x20 robustness-report  train 4 kinds plain vs. defended (RDAT),\n\
     \x20            attack all of them and write a strict-JSON report\n\
     \x20            [--epochs N] [--budget N] [--theta X] [--samples N]\n\
     \x20            [--max-train-samples N] [--out FILE] [--require-pass]\n\
     \x20 outage-report  train 4 kinds on clean data, evaluate each\n\
     \x20            through imputed sensor outages and write the\n\
     \x20            accuracy-vs-outage-rate degradation curves\n\
     \x20            [--epochs N] [--samples N] [--max-train-samples N]\n\
     \x20            [--rates R1,R2,…] [--mean-duration N] [--out FILE]\n\
     \x20 scenario   network-scale scenario engine: realize a strict-JSON\n\
     \x20            scenario spec into a road-network corpus\n\
     \x20            <generate|describe|report> (--spec FILE | --demo)\n\
     \x20            [--segments N] [--days N] [--seed N] [--out FILE]\n\
     \x20            (report also trains the per-segment grid:\n\
     \x20            [--epochs N] [--eval-segments N] [--samples N]\n\
     \x20            [--max-train-samples N] [--report-seed N])\n\
     \x20 ci-timings write machine-readable per-stage CI timings as\n\
     \x20            strict JSON (schema apots-ci-timings)\n\
     \x20            STAGE:SECS:STATUS [STAGE:SECS:STATUS …] [--out FILE]\n\
     \x20 metrics-summary  aggregate a JSONL trace into one JSON report\n\
     \x20            <trace.jsonl> [--compact]\n\
     \x20 bench-gate check fresh BENCH_*.json files against the committed\n\
     \x20            baseline; exits non-zero on regression\n\
     \x20            [--baselines FILE] [--dir DIR] [--tolerance T]\n\
     \x20            [--scale-baseline X] [--write-baseline]\n\
     \n\
     global options:\n\
     \x20 --threads N  pin the compute pool to N threads (default: the\n\
     \x20              APOTS_THREADS env var, else all cores; outputs are\n\
     \x20              bit-identical for any value)\n\
     \x20 --trace FILE write a structured JSONL telemetry trace (overrides\n\
     \x20              the APOTS_TRACE env var; tracing never changes\n\
     \x20              numerical results)\n\
     \x20 APOTS_FAULTS arm the deterministic fault-injection plane for\n\
     \x20              compute commands (env var, e.g. seed=42,eio=0.2;\n\
     \x20              see DESIGN.md §13)"
}

fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, args) = Args::parse(argv)?;
    // Global --threads N: pins the compute pool for this invocation
    // (overrides APOTS_THREADS; 1 = exact serial path). Results are
    // bit-identical for any setting — see DESIGN.md §9 — so this is a
    // pure wall-clock knob.
    if let Some(n) = args.get_usize("threads")? {
        if n == 0 {
            return Err("--threads must be positive".into());
        }
        apots_par::set_threads(n);
    }
    // Global --trace FILE: start a telemetry session writing a JSONL
    // trace (overrides APOTS_TRACE). Only compute commands trace —
    // `metrics-summary` *reads* traces and must never clobber its own
    // input. Without either knob telemetry stays disabled and every
    // probe costs one relaxed atomic load (DESIGN.md §11).
    let traced = matches!(
        cmd.as_str(),
        "simulate"
            | "train"
            | "eval"
            | "predict"
            | "attack"
            | "robustness-report"
            | "outage-report"
            | "scenario"
            | "serve"
    );
    if traced {
        match args.get_str("trace") {
            Some(path) => apots_obs::enable(Some(std::path::PathBuf::from(path))),
            None => {
                let _ = apots_obs::init_from_env();
            }
        }
        // Global APOTS_FAULTS=<spec>: arm the deterministic
        // fault-injection plane for this invocation (DESIGN.md §13).
        // Compute commands only — `metrics-summary` and `bench-gate`
        // are pure readers and must see the real filesystem. A bad
        // spec is a hard error, not a silently-disarmed plane.
        if let Some(spec) = apots_faults::FaultSpec::from_env()? {
            apots_faults::arm(spec);
        }
    }
    let result = match cmd.as_str() {
        "simulate" => no_operands(&args, cmd_simulate),
        "train" => no_operands(&args, cmd_train),
        "eval" => no_operands(&args, cmd_eval),
        "predict" => no_operands(&args, cmd_predict),
        "serve" => no_operands(&args, cmd_serve),
        "attack" => no_operands(&args, cmd_attack),
        "robustness-report" => no_operands(&args, cmd_robustness_report),
        "outage-report" => no_operands(&args, cmd_outage_report),
        "scenario" => cmd_scenario(&args),
        "ci-timings" => cmd_ci_timings(&args),
        "metrics-summary" => cmd_metrics_summary(&args),
        "bench-gate" => bench_gate::run(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    if traced {
        // The trainer drains at every epoch boundary; this final drain
        // covers the other commands and the error path.
        apots_obs::drain_and_flush();
    }
    result
}

/// Runs a command with the strict `--key value` grammar (no operands).
fn no_operands(args: &Args, f: impl FnOnce(&Args) -> Result<(), String>) -> Result<(), String> {
    args.expect_no_positionals()?;
    f(args)
}

fn cmd_metrics_summary(args: &Args) -> Result<(), String> {
    let path = args
        .positional(0)
        .ok_or_else(|| "usage: metrics-summary <trace.jsonl> [--compact]".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary = apots_obs::summary::summarize(&text)?;
    if args.has_flag("compact") {
        println!("{summary}");
    } else {
        println!("{}", summary.to_string_pretty());
    }
    Ok(())
}

fn build_data(args: &Args) -> Result<TrafficDataset, String> {
    let days = args.get_usize("days")?.unwrap_or(28);
    let seed = args.get_u64("seed")?.unwrap_or(7);
    if days == 0 {
        return Err("--days must be positive".into());
    }
    let calendar = if days == 122 {
        Calendar::paper_period()
    } else {
        Calendar::new(days, 6, vec![])
    };
    let sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    Ok(TrafficDataset::new(
        Corridor::generate_with_calendar(sim, calendar),
        DataConfig {
            seed: seed ^ 0xDA7A,
            ..DataConfig::default()
        },
    ))
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let data = build_data(args)?;
    let c = data.corridor();
    let h = c.target_road();
    println!(
        "corridor: {} roads × {} intervals ({} days)",
        c.n_roads(),
        c.intervals(),
        c.intervals() / INTERVALS_PER_DAY
    );
    println!(
        "target road {h}: free flow {:.1} km/h, mean {:.1} km/h, min {:.1} km/h",
        c.free_flow()[h],
        c.road_speeds(h).iter().sum::<f32>() / c.intervals() as f32,
        c.road_speeds(h)
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min),
    );
    println!(
        "weather: {:.1}% of intervals rainy; incidents: {}",
        100.0 * c.weather().wet_fraction(),
        c.incidents().incidents().len()
    );
    println!(
        "dataset: {} train / {} test samples",
        data.train_samples().len(),
        data.test_samples().len()
    );
    if let Some(path) = args.get_str("out") {
        let json = apots_serde::json!({
            "n_roads": c.n_roads(),
            "intervals": c.intervals(),
            "target_road": h,
            "speeds": (0..c.n_roads()).map(|r| c.road_speeds(r)).collect::<Vec<_>>(),
        });
        write_atomic(std::path::Path::new(path), &json.to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn parse_kind(s: &str) -> Result<PredictorKind, String> {
    PredictorKind::all()
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown predictor kind {s:?} (use F, L, C or H)"))
}

/// `--preset fast|paper` (default `fast`); any other spelling is an
/// error, not the small model.
fn parse_preset(args: &Args) -> Result<HyperPreset, String> {
    args.get_str("preset")
        .map_or(Ok(HyperPreset::Fast), HyperPreset::parse)
        .map_err(|e| format!("--preset {e}"))
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let kind = parse_kind(args.get_str("kind").unwrap_or("F"))?;
    let preset = parse_preset(args)?;
    let data = build_data(args)?;
    let out = args
        .get_str("out")
        .ok_or_else(|| "--out FILE is required".to_string())?;
    let adversarial = args.has_flag("adversarial");
    let mut cfg = if adversarial {
        TrainConfig::fast_adversarial(FeatureMask::BOTH)
    } else {
        TrainConfig::fast_plain(FeatureMask::BOTH)
    };
    if let Some(e) = args.get_usize("epochs")? {
        cfg.epochs = e;
    }
    cfg.seed = args.get_u64("seed")?.unwrap_or(7);

    let resume = args.has_flag("resume");
    let save_every = args.get_usize("save-every")?.unwrap_or(1);
    let mut options = match args.get_str("checkpoint-dir") {
        Some(dir) => TrainOptions::checkpointed(dir, save_every, resume),
        None if resume => return Err("--resume requires --checkpoint-dir".into()),
        None => TrainOptions::default(),
    };

    let mut p = build_predictor(kind, preset, &data, cfg.seed);
    println!(
        "training {} ({}, {} epochs) on {} samples…",
        kind.label(),
        if adversarial {
            "APOTS adversarial"
        } else {
            "plain MSE"
        },
        cfg.epochs,
        data.train_samples().len()
    );
    let report = train_with_options(p.as_mut(), &data, &cfg, &mut options)
        .map_err(|e| format!("training failed: {e}"))?;
    if let Some(n) = report.resumed_at {
        println!("resumed from a checkpoint covering {n} completed epoch(s)");
    }
    for (i, e) in report.epochs.iter().enumerate() {
        println!("epoch {i:2}: mse {:.5} d_loss {:.4}", e.mse, e.d_loss);
    }
    if report.divergence_rollbacks > 0 {
        println!(
            "divergence sentinel rolled back {} epoch pass(es); final LR scale {}",
            report.divergence_rollbacks, report.lr_scale
        );
    }
    write_atomic(
        std::path::Path::new(out),
        &Checkpoint::capture(p.as_mut()).to_json(),
    )
    .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote checkpoint {out}");
    Ok(())
}

/// Reads the `--model` checkpoint and restores it under `--preset`
/// against the corridor `--days` / `--seed` regenerate. The options are
/// checked before the corridor is simulated.
fn load_model(args: &Args) -> Result<(TrafficDataset, Box<dyn apots::Predictor>), String> {
    let preset = parse_preset(args)?;
    let path = args
        .get_str("model")
        .ok_or_else(|| "--model FILE is required".to_string())?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let ck = Checkpoint::from_json(&json).map_err(|e| format!("bad checkpoint: {e}"))?;
    let data = build_data(args)?;
    let model = ck
        .restore(preset, &data)
        .map_err(|e| format!("bad checkpoint: {e}"))?;
    Ok((data, model))
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let (data, model) = load_model(args)?;
    let eval = evaluate(
        model.as_ref(),
        &data,
        FeatureMask::BOTH,
        data.test_samples(),
    );
    if args.has_flag("json") {
        let rows = eval.mape_rows();
        let json = apots_serde::json!({
            "mae": eval.overall.mae,
            "rmse": eval.overall.rmse,
            "mape": eval.overall.mape,
            "mape_normal": rows[1],
            "mape_abrupt_acc": rows[2],
            "mape_abrupt_dec": rows[3],
            "n_test": eval.predictions.len(),
        });
        println!("{}", json.to_string_pretty());
    } else {
        println!("test samples: {}", eval.predictions.len());
        println!("MAE  {:.2} km/h", eval.overall.mae);
        println!("RMSE {:.2} km/h", eval.overall.rmse);
        println!("MAPE {:.2}%", eval.overall.mape);
        let rows = eval.mape_rows();
        println!(
            "by situation: normal {:.2}%, abrupt acc {:.2}%, abrupt dec {:.2}%",
            rows[1], rows[2], rows[3]
        );
    }
    Ok(())
}

fn parse_theta(args: &Args) -> Result<Option<f32>, String> {
    match args.get_str("theta") {
        None => Ok(None),
        Some(s) => {
            let v: f32 = s
                .parse()
                .map_err(|_| format!("--theta expects a number, got {s:?}"))?;
            if !(v > 0.0 && v <= 1.0) {
                return Err(format!("--theta must be in (0, 1], got {v}"));
            }
            Ok(Some(v))
        }
    }
}

fn cmd_attack(args: &Args) -> Result<(), String> {
    let (data, mut model) = load_model(args)?;
    let kind = match args.get_str("attack") {
        None => AttackKind::RandomSearch,
        Some(s) => AttackKind::parse(s)
            .ok_or_else(|| format!("unknown attack {s:?} (use random-search, greedy or spsa)"))?,
    };
    let mut cfg = AttackConfig::new(kind);
    if let Some(theta) = parse_theta(args)? {
        cfg.theta = theta;
    }
    if let Some(b) = args.get_usize("budget")? {
        cfg.budget = b;
    }
    if let Some(s) = args.get_u64("attack-seed")? {
        cfg.seed = s;
    }
    let n = args.get_usize("samples")?.unwrap_or(64).max(1);
    let samples: Vec<usize> = data.test_samples().iter().copied().take(n).collect();
    let outcome = run_attack(model.as_mut(), &data, &samples, &cfg);
    if args.has_flag("json") {
        let json = apots_serde::json!({
            "attack": kind.label(),
            "theta": f64::from(cfg.theta),
            "budget": cfg.budget,
            "samples": samples.len(),
            "clean_mse": outcome.clean_mse,
            "attacked_mse": outcome.attacked_mse,
            "degradation": outcome.degradation(),
            "queries": outcome.queries,
        });
        println!("{}", json.to_string_pretty());
    } else {
        println!(
            "{} attack on {} test samples (θ = {}, budget {})",
            kind.label(),
            samples.len(),
            cfg.theta,
            cfg.budget
        );
        println!("clean MSE    {:.4} (km/h)²", outcome.clean_mse);
        println!("attacked MSE {:.4} (km/h)²", outcome.attacked_mse);
        println!(
            "degradation  {:.3}× over {} forward queries",
            outcome.degradation(),
            outcome.queries
        );
    }
    Ok(())
}

fn cmd_robustness_report(args: &Args) -> Result<(), String> {
    let data = build_data(args)?;
    let mut cfg = ReportConfig::default();
    if let Some(theta) = parse_theta(args)? {
        cfg.theta = theta;
    }
    if let Some(b) = args.get_usize("budget")? {
        cfg.budget = b;
    }
    if let Some(e) = args.get_usize("epochs")? {
        if e == 0 {
            return Err("--epochs must be positive".into());
        }
        cfg.epochs = e;
    }
    if let Some(n) = args.get_usize("samples")? {
        cfg.eval_samples = n;
    }
    if let Some(n) = args.get_usize("max-train-samples")? {
        cfg.max_train_samples = Some(n);
    }
    if let Some(s) = args.get_u64("report-seed")? {
        cfg.seed = s;
    }
    eprintln!(
        "robustness sweep: 4 kinds × {{plain, defended}} × {} attacks \
         ({} epochs each; θ = {}, budget {})…",
        AttackKind::all().len(),
        cfg.epochs,
        cfg.theta,
        cfg.budget
    );
    let report = robustness_report(&data, &cfg);
    let text = report.to_string_pretty();
    match args.get_str("out") {
        Some(path) => {
            write_atomic(std::path::Path::new(path), &text)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{text}"),
    }
    let all_pass = report.get("all_pass").and_then(apots_serde::Json::as_bool);
    if args.has_flag("require-pass") && all_pass != Some(true) {
        return Err(
            "robustness gate failed: a defended model did not beat its plain \
             twin under ≥2 of 3 attacks (all_pass = false)"
                .into(),
        );
    }
    Ok(())
}

fn cmd_outage_report(args: &Args) -> Result<(), String> {
    let data = build_data(args)?;
    let mut cfg = DegradeConfig::default();
    if let Some(e) = args.get_usize("epochs")? {
        if e == 0 {
            return Err("--epochs must be positive".into());
        }
        cfg.epochs = e;
    }
    if let Some(n) = args.get_usize("samples")? {
        cfg.eval_samples = n;
    }
    if let Some(n) = args.get_usize("max-train-samples")? {
        cfg.max_train_samples = Some(n);
    }
    if let Some(s) = args.get_u64("report-seed")? {
        cfg.seed = s;
    }
    if let Some(d) = args.get_usize("mean-duration")? {
        if d == 0 {
            return Err("--mean-duration must be positive".into());
        }
        cfg.mean_duration = d;
    }
    if let Some(spec) = args.get_str("rates") {
        let mut rates = Vec::new();
        for part in spec.split(',') {
            let r: f64 = part
                .trim()
                .parse()
                .map_err(|_| format!("--rates expects numbers, got {part:?}"))?;
            if !(0.0..1.0).contains(&r) {
                return Err(format!("--rates values must be in [0, 1), got {r}"));
            }
            rates.push(r);
        }
        if rates.is_empty() {
            return Err("--rates must name at least one rate".into());
        }
        cfg.rates = rates;
    }
    eprintln!(
        "outage sweep: 4 kinds × {} rates ({} epochs each; mean window {} intervals)…",
        cfg.rates.len(),
        cfg.epochs,
        cfg.mean_duration
    );
    let report = degradation_report(&data, &cfg);
    let text = report.to_string_pretty();
    match args.get_str("out") {
        Some(path) => {
            write_atomic(std::path::Path::new(path), &text)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{text}"),
    }
    Ok(())
}

/// Resolves the scenario spec a `scenario` invocation works on: either
/// a strict-JSON file (`--spec FILE`, parse errors name the offending
/// key and its valid range) or the built-in demo (`--demo`, optionally
/// resized).
fn load_scenario_spec(args: &Args) -> Result<ScenarioSpec, String> {
    match (args.get_str("spec"), args.has_flag("demo")) {
        (Some(_), true) => Err("--spec and --demo are mutually exclusive".into()),
        (Some(path), false) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ScenarioSpec::parse(&text)
        }
        (None, true) => {
            let segments = args.get_usize("segments")?.unwrap_or(1024);
            if !(16..=65536).contains(&segments) {
                return Err(format!(
                    "--segments = {segments} out of range (valid: 16..=65536)"
                ));
            }
            let days = args.get_usize("days")?.unwrap_or(3);
            if !(3..=31).contains(&days) {
                return Err(format!(
                    "--days = {days} out of range for the demo spec \
                     (its events span days 1–2; valid: 3..=31)"
                ));
            }
            let mut spec = ScenarioSpec::demo(segments, days);
            if let Some(s) = args.get_u64("seed")? {
                spec.seed = s;
            }
            Ok(spec)
        }
        (None, false) => Err("scenario needs a spec: --spec FILE or --demo".into()),
    }
}

fn cmd_scenario(args: &Args) -> Result<(), String> {
    let mode = args.positional(0).ok_or_else(|| {
        "usage: scenario <generate|describe|report> (--spec FILE | --demo)".to_string()
    })?;
    if !matches!(mode, "generate" | "describe" | "report") {
        return Err(format!(
            "unknown scenario mode {mode:?} (valid modes: generate, describe, report)"
        ));
    }
    if let Some(extra) = args.positional(1) {
        return Err(format!("unexpected operand {extra:?}"));
    }
    let spec = load_scenario_spec(args)?;
    match mode {
        "describe" => {
            print!("{}", spec.describe());
            Ok(())
        }
        "generate" => {
            let corpus = generate_corpus(&spec);
            print!("{}", spec.describe());
            emit_json(args, &corpus.summary_json())
        }
        _ => {
            let corpus = generate_corpus(&spec);
            let mut cfg = NetworkRunConfig {
                seed: spec.seed,
                ..NetworkRunConfig::default()
            };
            if let Some(e) = args.get_usize("epochs")? {
                if e == 0 {
                    return Err("--epochs must be positive".into());
                }
                cfg.epochs = e;
            }
            if let Some(n) = args.get_usize("eval-segments")? {
                if n == 0 {
                    return Err("--eval-segments must be positive".into());
                }
                cfg.eval_segments = n;
            }
            if let Some(n) = args.get_usize("samples")? {
                cfg.eval_samples = n;
            }
            if let Some(n) = args.get_usize("max-train-samples")? {
                cfg.max_train_samples = Some(n);
            }
            if let Some(s) = args.get_u64("report-seed")? {
                cfg.seed = s;
            }
            eprintln!(
                "scenario grid: {} segments × 4 kinds ({} epochs each)…",
                cfg.eval_segments, cfg.epochs
            );
            emit_json(args, &network_report(&corpus, &cfg))
        }
    }
}

/// Pretty-prints `value` to stdout, or atomically to `--out FILE`.
fn emit_json(args: &Args, value: &Json) -> Result<(), String> {
    let text = value.to_string_pretty();
    match args.get_str("out") {
        Some(path) => {
            write_atomic(std::path::Path::new(path), &text)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{text}"),
    }
    Ok(())
}

/// Parses one `STAGE:SECS:STATUS` operand of `ci-timings`.
fn parse_timing_entry(s: &str) -> Result<(String, f64, String), String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [stage, secs, status] = parts.as_slice() else {
        return Err(format!(
            "bad timing entry {s:?}, expected STAGE:SECS:STATUS (e.g. lint:12.4:ok)"
        ));
    };
    if stage.is_empty() {
        return Err(format!("bad timing entry {s:?}: empty stage name"));
    }
    let secs: f64 = secs
        .parse()
        .map_err(|_| format!("bad timing entry {s:?}: {secs:?} is not a number of seconds"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "bad timing entry {s:?}: seconds must be finite and non-negative, got {secs}"
        ));
    }
    if !matches!(*status, "ok" | "fail" | "skip") {
        return Err(format!(
            "bad timing entry {s:?}: status {status:?} is not one of ok, fail, skip"
        ));
    }
    Ok((stage.to_string(), secs, status.to_string()))
}

/// Writes the per-stage CI timing report (`schema: apots-ci-timings`)
/// that `scripts/ci/verify.sh` collects and CI uploads as an artifact.
fn cmd_ci_timings(args: &Args) -> Result<(), String> {
    if args.positional(0).is_none() {
        return Err(
            "ci-timings needs at least one STAGE:SECS:STATUS entry (e.g. lint:12.4:ok)".into(),
        );
    }
    let mut entries = Vec::new();
    let mut total = 0.0f64;
    let mut failed = 0usize;
    for i in 0.. {
        let Some(raw) = args.positional(i) else { break };
        let (stage, secs, status) = parse_timing_entry(raw)?;
        total += secs;
        failed += usize::from(status == "fail");
        let mut m = Map::new();
        m.insert("stage".into(), Json::Str(stage));
        m.insert("secs".into(), Json::Num(secs));
        m.insert("status".into(), Json::Str(status));
        entries.push(Json::Obj(m));
    }
    let mut root = Map::new();
    root.insert("schema".into(), Json::Str("apots-ci-timings".into()));
    root.insert("stages".into(), Json::Num(entries.len() as f64));
    root.insert("failed".into(), Json::Num(failed as f64));
    root.insert("total_secs".into(), Json::Num(total));
    root.insert("entries".into(), Json::Arr(entries));
    let text = Json::Obj(root).to_string_pretty();

    let path = args.get_str("out").unwrap_or("results/ci_timings.json");
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    write_atomic(p, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn parse_hhmm(s: &str) -> Result<usize, String> {
    let (hh, mm) = s
        .split_once(':')
        .ok_or_else(|| format!("bad time {s:?}, expected HH:MM"))?;
    let h: usize = hh.parse().map_err(|_| format!("bad hour in {s:?}"))?;
    let m: usize = mm.parse().map_err(|_| format!("bad minute in {s:?}"))?;
    if h > 23 || m > 59 {
        return Err(format!("time {s:?} out of range"));
    }
    // The corridor ticks in 5-minute intervals; flooring `06:04` to
    // `06:00` silently would answer a different question than asked.
    if !m.is_multiple_of(5) {
        return Err(format!(
            "time {s:?} is not on a 5-minute boundary (intervals are 5 minutes; \
             use {h:02}:{:02} or {h:02}:{:02})",
            m - m % 5,
            (m - m % 5 + 5).min(55),
        ));
    }
    Ok(h * 12 + m / 5)
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    let (data, model) = load_model(args)?;
    let day = args
        .get_usize("day")?
        .ok_or_else(|| "--day N is required".to_string())?;
    let days = data.corridor().intervals() / INTERVALS_PER_DAY;
    if day >= days {
        return Err(format!(
            "--day {day} out of range (simulation has {days} days)"
        ));
    }
    let from = parse_hhmm(args.get_str("from").unwrap_or("06:00"))?;
    let to = parse_hhmm(args.get_str("to").unwrap_or("09:00"))?;
    if to <= from {
        return Err("--to must be after --from".into());
    }
    let start = day * INTERVALS_PER_DAY + from;
    let end = day * INTERVALS_PER_DAY + to;
    let trace = predict_trace(model.as_ref(), &data, FeatureMask::BOTH, start..end);
    let h = data.corridor().target_road();
    println!("time   predicted  real");
    for (t, pred) in trace {
        let minute = data.corridor().calendar().minute_of_day(t);
        println!(
            "{:02}:{:02}    {pred:6.1}  {:6.1}",
            minute / 60,
            minute % 60,
            data.corridor().speed(h, t)
        );
    }
    Ok(())
}

/// Every option `serve` reads, the global ones included.
const SERVE_OPTIONS: &[&str] = &[
    "model", "addr", "workers", "watch", "poll-ms", "days", "seed", "preset", "quant", "threads",
    "trace",
];

fn cmd_serve(args: &Args) -> Result<(), String> {
    // An option this command does not read (a typo, a knob it no longer
    // has) must fail here, not be ignored; every option is checked before
    // the corridor is simulated or a port bound.
    args.expect_only(SERVE_OPTIONS)?;
    let mut cfg = apots_serve::ServeConfig {
        addr: args.get_str("addr").unwrap_or("127.0.0.1:7077").to_string(),
        preset: parse_preset(args)?,
        ..apots_serve::ServeConfig::default()
    };
    if let Some(n) = args.get_usize("workers")? {
        if n == 0 {
            return Err("--workers must be at least 1 (got 0)\n\
                 connection workers speak HTTP; with zero of them every accepted \
                 connection would hang unanswered"
                .into());
        }
        cfg.workers = n;
    }
    if let Some(s) = args.get_str("quant") {
        cfg.quant = apots::InferenceMode::parse(s).map_err(|e| format!("--quant: {e}"))?;
    }
    if let Some(ms) = args.get_usize("poll-ms")? {
        cfg.poll_interval = std::time::Duration::from_millis(ms as u64);
    }
    // The boot checkpoint comes from --model (the `train --out` file);
    // --watch DIR points at a trainer's --checkpoint-dir rotation, which
    // the server then hot-follows.
    let path = args
        .get_str("model")
        .ok_or_else(|| "--model FILE is required".to_string())?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let initial = Checkpoint::from_json(&json).map_err(|e| format!("bad checkpoint: {e}"))?;
    let data = std::sync::Arc::new(build_data(args)?);
    let store = match args.get_str("watch") {
        Some(dir) => Some(
            apots::persist::CheckpointStore::open(dir)
                .map_err(|e| format!("cannot open --watch dir: {e}"))?,
        ),
        None => None,
    };
    let watching = store.is_some();

    let quant = cfg.quant;
    let server = apots_serve::Server::start(cfg, data, initial, store)?;
    println!("serving on http://{} (quant: {quant})", server.addr());
    println!(
        "  GET /predict?road=R&t=T   predicted speed for road R at interval T\n\
         \x20 GET /healthz              liveness + model generation\n\
         \x20 GET /metrics              serve counters"
    );
    if watching {
        println!("watching for checkpoint rotations (hot-swap enabled)");
    }
    // Serve until the process is killed; the OS reclaims the sockets.
    // The Server's own shutdown path is exercised by the crate tests and
    // the load generator, which own their server in-process.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_hhmm, parse_timing_entry, run};

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn scenario_rejects_unknown_mode_by_name() {
        let err = run(&strs(&["scenario", "pileup", "--demo"])).unwrap_err();
        assert!(err.contains("\"pileup\""), "{err}");
        assert!(err.contains("generate, describe, report"), "{err}");
    }

    #[test]
    fn scenario_requires_a_spec_source() {
        let err = run(&strs(&["scenario", "describe"])).unwrap_err();
        assert!(err.contains("--spec FILE or --demo"), "{err}");
    }

    #[test]
    fn scenario_demo_rejects_out_of_range_sizes_with_the_valid_range() {
        let err = run(&strs(&[
            "scenario",
            "describe",
            "--demo",
            "--segments",
            "4",
        ]))
        .unwrap_err();
        assert!(err.contains("--segments = 4"), "{err}");
        assert!(err.contains("16..=65536"), "{err}");
        let err = run(&strs(&["scenario", "describe", "--demo", "--days", "2"])).unwrap_err();
        assert!(err.contains("--days = 2"), "{err}");
        assert!(err.contains("3..=31"), "{err}");
    }

    #[test]
    fn scenario_describe_demo_succeeds() {
        run(&strs(&[
            "scenario",
            "describe",
            "--demo",
            "--segments",
            "64",
        ]))
        .unwrap();
    }

    #[test]
    fn timing_entries_parse() {
        assert_eq!(
            parse_timing_entry("lint:12.4:ok").unwrap(),
            ("lint".to_string(), 12.4, "ok".to_string())
        );
        assert_eq!(
            parse_timing_entry("scenario:0:skip").unwrap(),
            ("scenario".to_string(), 0.0, "skip".to_string())
        );
    }

    #[test]
    fn timing_entries_reject_malformed_input_by_name() {
        // Wrong arity: the error shows the expected shape.
        let err = parse_timing_entry("lint:12.4").unwrap_err();
        assert!(err.contains("STAGE:SECS:STATUS"), "{err}");
        // Non-numeric seconds name the bad field.
        let err = parse_timing_entry("lint:fast:ok").unwrap_err();
        assert!(err.contains("\"fast\""), "{err}");
        // Negative seconds are impossible for a wall clock.
        let err = parse_timing_entry("lint:-3:ok").unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        // Unknown status lists the valid ones.
        let err = parse_timing_entry("lint:3:crashed").unwrap_err();
        assert!(err.contains("\"crashed\""), "{err}");
        assert!(err.contains("ok, fail, skip"), "{err}");
        // Empty stage name.
        assert!(parse_timing_entry(":3:ok").unwrap_err().contains("empty"));
    }

    #[test]
    fn ci_timings_requires_entries() {
        let err = run(&strs(&["ci-timings"])).unwrap_err();
        assert!(err.contains("STAGE:SECS:STATUS"), "{err}");
    }

    #[test]
    fn serve_knobs_reject_zero_with_named_two_line_errors() {
        let err = run(&strs(&["serve", "--model", "m.json", "--workers", "0"])).unwrap_err();
        assert!(
            err.starts_with("--workers must be at least 1 (got 0)"),
            "{err}"
        );
        assert_eq!(err.lines().count(), 2, "{err}");
    }

    /// A positive worker count passes validation: the command goes on
    /// to read the checkpoint.
    #[test]
    fn serve_knobs_pass_positive_values_through() {
        let err = run(&strs(&[
            "serve",
            "--model",
            "/nonexistent/m.json",
            "--workers",
            "3",
        ]))
        .unwrap_err();
        assert!(err.starts_with("cannot read /nonexistent/m.json"), "{err}");
    }

    /// Options `serve` does not read (the shard and batching knobs it
    /// once had, a typo) are refused by name, with the accepted list,
    /// before any corridor is simulated or port bound.
    #[test]
    fn serve_refuses_options_it_does_not_read() {
        for (flag, value) in [("shards", "2"), ("batch-max", "8")] {
            let argv = strs(&["serve", "--model", "m.json", &format!("--{flag}"), value]);
            let err = run(&argv).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown option --{flag} (accepted: --model, ")),
                "{err}"
            );
            assert!(
                err.contains("--workers") && err.contains("--quant"),
                "{err}"
            );
        }
    }

    #[test]
    fn preset_is_parsed_strictly_everywhere() {
        for argv in [
            ["train", "--out", "o.json"],
            ["eval", "--model", "m.json"],
            ["serve", "--model", "m.json"],
        ] {
            let err = run(&strs(&[&argv[..], &["--preset", "Paper"]].concat())).unwrap_err();
            assert_eq!(
                err, "--preset \"Paper\": expected fast or paper",
                "{argv:?}"
            );
        }
    }

    #[test]
    fn hhmm_parses_five_minute_boundaries() {
        assert_eq!(parse_hhmm("00:00").unwrap(), 0);
        assert_eq!(parse_hhmm("06:05").unwrap(), 6 * 12 + 1);
        assert_eq!(parse_hhmm("23:55").unwrap(), 287);
    }

    #[test]
    fn hhmm_rejects_out_of_range() {
        assert!(parse_hhmm("24:00").unwrap_err().contains("out of range"));
        assert!(parse_hhmm("12:60").unwrap_err().contains("out of range"));
    }

    #[test]
    fn hhmm_rejects_off_grid_minutes_instead_of_flooring() {
        // 06:04 used to silently mean 06:00 — the error must name the
        // nearest valid boundaries, not guess for the user.
        let err = parse_hhmm("06:04").unwrap_err();
        assert!(err.contains("5-minute"), "{err}");
        assert!(err.contains("06:00") && err.contains("06:05"), "{err}");
        let err = parse_hhmm("23:59").unwrap_err();
        assert!(err.contains("23:55"), "{err}");
    }

    #[test]
    fn hhmm_rejects_malformed_strings() {
        assert!(parse_hhmm("0600").is_err());
        assert!(parse_hhmm("six:ten").is_err());
        assert!(parse_hhmm("06:").is_err());
    }
}
