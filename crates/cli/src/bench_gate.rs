//! `bench-gate` subcommand: compare fresh `BENCH_*.json` results against
//! a committed baseline and fail on regression.
//!
//! The baseline file (`bench_baselines.json` by default) is strict JSON:
//!
//! ```json
//! {
//!   "schema": "apots-bench-baselines",
//!   "default_tolerance": 0.15,
//!   "metrics": [
//!     {"file": "BENCH_train_epoch.json", "name": "plain_epoch_256_H_threads1",
//!      "field": "median_ns", "value": 55917524.0, "tolerance": 0.35},
//!     {"file": "BENCH_alloc_profile.json", "name": "plain_F",
//!      "field": "steady_state_allocs", "value": 0.0, "exact": true}
//!   ]
//! }
//! ```
//!
//! Semantics:
//!
//! * `exact: true` metrics (allocation counts) must match bit-for-bit;
//! * timing metrics pass when `|fresh − base| ≤ tol · base` — the check
//!   is **two-sided** so both regressions *and* suspicious speedups
//!   (usually a broken benchmark) trip the gate;
//! * every tolerance must be `< 0.5`, which guarantees that a baseline
//!   median inflated 2× can never pass — the CI self-test relies on
//!   this via `--scale-baseline 2`.
//!
//! `--write-baseline` refreshes the `value` fields in place from the
//! current `BENCH_*.json` files (keeping the metric list and tolerances),
//! which is how the committed baseline is regenerated after an accepted
//! performance change.

use std::path::Path;

use apots_serde::atomic::write_atomic;
use apots_serde::schema::{self, Obj};
use apots_serde::{Json, Map};

use crate::args::Args;

/// Hard ceiling on per-metric tolerance. Anything `>= 0.5` would let a
/// 2× regression pass the two-sided check, defeating the gate.
const MAX_TOLERANCE: f64 = 0.5;

const SCHEMA: &str = "apots-bench-baselines";
const KEYS: &str = "schema default_tolerance metrics";
const METRIC_KEYS: &str = "file name field value tolerance exact";

#[derive(Debug, PartialEq)]
pub(crate) struct Metric {
    file: String,
    name: String,
    field: String,
    value: f64,
    tolerance: Option<f64>,
    exact: bool,
}

/// Reads a baseline file. Only [`render_baselines`] writes these, so a
/// key it never emits (a misspelt `tolerance` or `exact`) is refused by
/// name instead of silently falling back to a default.
pub(crate) fn parse_baselines(text: &str, path: &str) -> Result<(f64, Vec<Metric>), String> {
    let json = Json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let doc = Obj::new(&json, path)?.only(KEYS)?;
    let schema = doc.req("schema")?.str()?;
    if schema != SCHEMA {
        return Err(format!(
            "{path}: schema = {schema:?} not supported (valid: {SCHEMA:?})"
        ));
    }
    let default_tolerance = match doc.opt("default_tolerance") {
        Some(f) => check_tolerance(path, "default_tolerance", f.f64()?)?,
        None => 0.15,
    };
    let metrics = doc
        .req("metrics")?
        .arr()?
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let m = Obj::new(m, format!("{path}: metrics[{i}]"))?.only(METRIC_KEYS)?;
            let tolerance = match m.opt("tolerance") {
                Some(f) => Some(check_tolerance(m.ctx(), "tolerance", f.f64()?)?),
                None => None,
            };
            Ok(Metric {
                file: m.req("file")?.str()?.to_string(),
                name: m.req("name")?.str()?.to_string(),
                field: m.req("field")?.str()?.to_string(),
                value: m.req("value")?.f64()?,
                tolerance,
                exact: m.opt("exact").map_or(Ok(false), |f| f.bool())?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if metrics.is_empty() {
        return Err(format!("{path}: empty metrics list"));
    }
    Ok((default_tolerance, metrics))
}

/// Returns `t` if it lies in `[0, MAX_TOLERANCE)`.
fn check_tolerance(ctx: &str, key: &str, t: f64) -> Result<f64, String> {
    let valid = 0.0..MAX_TOLERANCE;
    if valid.contains(&t) {
        return Ok(t);
    }
    Err(format!(
        "{} — a tolerance this loose could not catch a 2x regression",
        schema::out_of_range(ctx, key, t, &valid)
    ))
}

/// Reads `field` of the entry named `name` from a `BENCH_*.json` file.
///
/// Both bench layouts are supported: timing targets keep entries under
/// `results`, the allocation profiler under `runs`. Other keys (`host`,
/// `target`, `mode`) are not the gate's to check.
fn fresh_value(dir: &Path, metric: &Metric) -> Result<f64, String> {
    let path = dir.join(&metric.file).display().to_string();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let doc = Obj::new(&json, path.as_str())?;
    let entries = doc
        .opt("results")
        .or_else(|| doc.opt("runs"))
        .ok_or_else(|| format!("{path}: no results/runs array"))?
        .arr()?;
    let named = |e: &&Json| e.get("name").and_then(Json::as_str) == Some(&metric.name);
    let entry = entries
        .iter()
        .find(named)
        .ok_or_else(|| format!("{path}: no entry named {:?}", metric.name))?;
    let entry = Obj::new(entry, format!("{path}: entry {:?}", metric.name))?;
    entry.req(&metric.field)?.f64()
}

pub(crate) fn render_baselines(default_tolerance: f64, metrics: &[Metric]) -> String {
    let mut root = Map::new();
    root.insert("schema".into(), Json::Str(SCHEMA.into()));
    root.insert("default_tolerance".into(), Json::Num(default_tolerance));
    let mut arr = Vec::with_capacity(metrics.len());
    for m in metrics {
        let mut o = Map::new();
        o.insert("file".into(), Json::Str(m.file.clone()));
        o.insert("name".into(), Json::Str(m.name.clone()));
        o.insert("field".into(), Json::Str(m.field.clone()));
        o.insert("value".into(), Json::Num(m.value));
        if let Some(t) = m.tolerance {
            o.insert("tolerance".into(), Json::Num(t));
        }
        if m.exact {
            o.insert("exact".into(), Json::Bool(true));
        }
        arr.push(Json::Obj(o));
    }
    root.insert("metrics".into(), Json::Arr(arr));
    Json::Obj(root).to_string_pretty()
}

/// Entry point for the `bench-gate` subcommand.
pub fn run(args: &Args) -> Result<(), String> {
    let baselines_path = args.get_str("baselines").unwrap_or("bench_baselines.json");
    let dir = Path::new(args.get_str("dir").unwrap_or("."));
    let scale = args.get_f64("scale-baseline")?.unwrap_or(1.0);
    if scale <= 0.0 {
        return Err("--scale-baseline must be positive".into());
    }
    let text = std::fs::read_to_string(baselines_path)
        .map_err(|e| format!("cannot read {baselines_path}: {e}"))?;
    let (mut default_tolerance, mut metrics) = parse_baselines(&text, baselines_path)?;
    if let Some(t) = args.get_f64("tolerance")? {
        default_tolerance = check_tolerance("bench-gate", "--tolerance", t)?;
    }

    if args.has_flag("write-baseline") {
        for m in &mut metrics {
            m.value = fresh_value(dir, m)?;
        }
        let rendered = render_baselines(default_tolerance, &metrics);
        write_atomic(Path::new(baselines_path), &rendered)
            .map_err(|e| format!("cannot write {baselines_path}: {e}"))?;
        println!(
            "bench-gate: wrote {baselines_path} ({} metrics)",
            metrics.len()
        );
        return Ok(());
    }

    let mut failures = 0usize;
    println!(
        "{:<44} {:>14} {:>14} {:>8}  status",
        "metric", "baseline", "fresh", "delta"
    );
    for m in &metrics {
        let base = m.value * scale;
        let fresh = fresh_value(dir, m)?;
        let (ok, delta_txt) = if m.exact || base == 0.0 {
            (
                fresh == base,
                if fresh == base {
                    "=".into()
                } else {
                    "!=".into()
                },
            )
        } else {
            let rel = (fresh - base) / base;
            let tol = m.tolerance.unwrap_or(default_tolerance);
            (rel.abs() <= tol, format!("{:+.1}%", 100.0 * rel))
        };
        if !ok {
            failures += 1;
        }
        println!(
            "{:<44} {:>14.0} {:>14.0} {:>8}  {}",
            format!("{}:{}", m.name, m.field),
            base,
            fresh,
            delta_txt,
            if ok { "ok" } else { "FAIL" }
        );
    }
    if failures > 0 {
        return Err(format!(
            "bench-gate: {failures}/{} metric(s) outside tolerance",
            metrics.len()
        ));
    }
    println!(
        "bench-gate: all {} metric(s) within tolerance",
        metrics.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "schema": "apots-bench-baselines",
      "default_tolerance": 0.15,
      "metrics": [
        {"file": "BENCH_x.json", "name": "a", "field": "median_ns", "value": 100.0},
        {"file": "BENCH_x.json", "name": "b", "field": "steady_state_allocs",
         "value": 0.0, "exact": true}
      ]
    }"#;

    #[test]
    fn parses_baselines() {
        let (tol, metrics) = parse_baselines(BASE, "t").unwrap();
        assert_eq!(tol, 0.15);
        assert_eq!(metrics.len(), 2);
        assert!(metrics[1].exact);
        assert_eq!(metrics[0].value, 100.0);
    }

    #[test]
    fn rejects_gate_defeating_tolerance() {
        let loose = BASE.replace("0.15", "0.6");
        let err = parse_baselines(&loose, "t").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    /// A misspelt key used to be ignored: `"tolerence"` gated at the
    /// default tolerance and `"exakt"` turned an exact checksum row into a
    /// timing band. Both are refused by name with the valid keys.
    #[test]
    fn refuses_misspelt_keys_by_name() {
        let metric = "(valid keys: file, name, field, value, tolerance, exact)";
        for (from, to, err) in [
            (
                "\"value\": 100.0}",
                "\"value\": 100.0, \"tolerence\": 0.3}",
                format!("t: metrics[0]: unknown key \"tolerence\" {metric}"),
            ),
            (
                "\"exact\": true",
                "\"exakt\": true",
                format!("t: metrics[1]: unknown key \"exakt\" {metric}"),
            ),
            (
                "\"default_tolerance\"",
                "\"default_tol\"",
                "t: unknown key \"default_tol\" (valid keys: schema, default_tolerance, metrics)"
                    .to_string(),
            ),
        ] {
            let text = BASE.replacen(from, to, 1);
            assert_ne!(text, BASE);
            assert_eq!(parse_baselines(&text, "t").unwrap_err(), err);
        }
    }

    /// A row that sets `exact` twice used to be read by its last value,
    /// gating an exact checksum row as a ±15 % timing band; it is refused
    /// by name.
    #[test]
    fn refuses_a_repeated_key_by_name() {
        let text = BASE.replacen("\"exact\": true", "\"exact\": true, \"exact\": false", 1);
        assert_ne!(text, BASE);
        let err = parse_baselines(&text, "t").unwrap_err();
        assert!(
            err.starts_with("t: duplicate key \"exact\" in object at byte "),
            "{err}"
        );
    }

    /// The committed baseline files use only the known keys.
    #[test]
    fn committed_baselines_load() {
        for (path, text) in [
            (
                "bench_baselines.json",
                include_str!("../../../bench_baselines.json"),
            ),
            (
                "bench_serve_baselines.json",
                include_str!("../../../bench_serve_baselines.json"),
            ),
        ] {
            let (_, metrics) = parse_baselines(text, path).unwrap();
            assert!(metrics.len() > 10, "{path}");
        }
    }

    /// Bench reports carry a `host` object next to their entries, with
    /// the commit as a string or, outside a work tree, `null`; the gate
    /// reads the entries and ignores it.
    #[test]
    fn reads_fresh_values_next_to_host_facts() {
        let dir = std::env::temp_dir().join(format!("apots-gate-host-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (_, metrics) = parse_baselines(BASE, "t").unwrap();
        for commit in [r#""0123456789abcdef0123456789abcdef01234567""#, "null"] {
            std::fs::write(
                dir.join("BENCH_x.json"),
                format!(
                    r#"{{"target": "x", "mode": "smoke",
                        "host": {{"nproc": 2, "pool_threads": 2, "commit": {commit}}},
                        "results": [{{"name": "a", "median_ns": 110.0}}]}}"#
                ),
            )
            .unwrap();
            assert_eq!(fresh_value(&dir, &metrics[0]), Ok(110.0), "commit {commit}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_through_render() {
        let (tol, metrics) = parse_baselines(BASE, "t").unwrap();
        let rendered = render_baselines(tol, &metrics);
        let (tol2, metrics2) = parse_baselines(&rendered, "t").unwrap();
        assert_eq!(tol, tol2);
        assert_eq!(metrics.len(), metrics2.len());
        assert_eq!(metrics2[0].value, 100.0);
        assert!(metrics2[1].exact);
    }
}
