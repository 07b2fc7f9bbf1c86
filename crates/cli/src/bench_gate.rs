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
use apots_serde::{Json, Map};

use crate::args::Args;

/// Hard ceiling on per-metric tolerance. Anything `>= 0.5` would let a
/// 2× regression pass the two-sided check, defeating the gate.
const MAX_TOLERANCE: f64 = 0.5;

#[derive(Debug)]
struct Metric {
    file: String,
    name: String,
    field: String,
    value: f64,
    tolerance: Option<f64>,
    exact: bool,
}

fn parse_baselines(text: &str, path: &str) -> Result<(f64, Vec<Metric>), String> {
    let json = Json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let obj = json
        .as_object()
        .ok_or_else(|| format!("{path}: expected an object"))?;
    match obj.get("schema").and_then(Json::as_str) {
        Some("apots-bench-baselines") => {}
        other => return Err(format!("{path}: bad schema {other:?}")),
    }
    let default_tolerance = obj
        .get("default_tolerance")
        .and_then(Json::as_f64)
        .unwrap_or(0.15);
    check_tolerance(default_tolerance, path, "default_tolerance")?;
    let raw = obj
        .get("metrics")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: missing metrics array"))?;
    let mut metrics = Vec::with_capacity(raw.len());
    for (i, m) in raw.iter().enumerate() {
        let m = m
            .as_object()
            .ok_or_else(|| format!("{path}: metrics[{i}] is not an object"))?;
        let get_str = |key: &str| -> Result<String, String> {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}: metrics[{i}] missing string {key:?}"))
        };
        let tolerance = m.get("tolerance").and_then(Json::as_f64);
        if let Some(t) = tolerance {
            check_tolerance(t, path, &format!("metrics[{i}].tolerance"))?;
        }
        metrics.push(Metric {
            file: get_str("file")?,
            name: get_str("name")?,
            field: get_str("field")?,
            value: m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: metrics[{i}] missing numeric value"))?,
            tolerance,
            exact: m.get("exact").and_then(Json::as_bool).unwrap_or(false),
        });
    }
    if metrics.is_empty() {
        return Err(format!("{path}: empty metrics list"));
    }
    Ok((default_tolerance, metrics))
}

fn check_tolerance(t: f64, path: &str, what: &str) -> Result<(), String> {
    if !(0.0..MAX_TOLERANCE).contains(&t) {
        return Err(format!(
            "{path}: {what} = {t} out of range [0, {MAX_TOLERANCE}) — a tolerance \
             this loose could not catch a 2x regression"
        ));
    }
    Ok(())
}

/// Reads `field` of the entry named `name` from a `BENCH_*.json` file.
///
/// Both bench layouts are supported: timing targets keep entries under
/// `results`, the allocation profiler under `runs`.
fn fresh_value(dir: &Path, metric: &Metric) -> Result<f64, String> {
    let path = dir.join(&metric.file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let obj = json
        .as_object()
        .ok_or_else(|| format!("{}: expected an object", path.display()))?;
    let entries = obj
        .get("results")
        .or_else(|| obj.get("runs"))
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no results/runs array", path.display()))?;
    let entry = entries
        .iter()
        .filter_map(Json::as_object)
        .find(|e| e.get("name").and_then(Json::as_str) == Some(metric.name.as_str()))
        .ok_or_else(|| format!("{}: no entry named {:?}", path.display(), metric.name))?;
    entry
        .get(&metric.field)
        .and_then(Json::as_f64)
        .ok_or_else(|| {
            format!(
                "{}: entry {:?} has no numeric field {:?}",
                path.display(),
                metric.name,
                metric.field
            )
        })
}

fn render_baselines(default_tolerance: f64, metrics: &[Metric]) -> String {
    let mut root = Map::new();
    root.insert("schema".into(), Json::Str("apots-bench-baselines".into()));
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
    args.expect_no_positionals()?;
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
        check_tolerance(t, "--tolerance", "value")?;
        default_tolerance = t;
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
