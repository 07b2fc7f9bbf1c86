//! Trace aggregation (`apots metrics-summary`) and the deterministic
//! golden hash over a trace's thread-count-invariant subset.

use apots_serde::{Json, Map};

fn parse_lines(text: &str) -> Result<Vec<Json>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("trace line {}: {e:?}", i + 1))?;
        if j.as_object().is_none() {
            return Err(format!("trace line {}: not a JSON object", i + 1));
        }
        out.push(j);
    }
    Ok(out)
}

fn kind(j: &Json) -> &str {
    j.get("kind").and_then(|k| k.as_str()).unwrap_or("")
}

fn name(j: &Json) -> &str {
    j.get("name").and_then(|k| k.as_str()).unwrap_or("")
}

fn is_det(j: &Json) -> bool {
    j.get("det").and_then(|d| d.as_bool()).unwrap_or(false)
}

fn f(j: &Json, key: &str) -> Option<f64> {
    j.get(key).and_then(|v| v.as_f64())
}

/// FNV-1a over the canonical projection of a trace's deterministic subset.
///
/// Keeps lines with `det: true`, projects each onto its wall-clock- and
/// thread-invariant fields (`kind`, `name`, payload values — never `t_ns`,
/// `dur_ns` or `thread`), re-serializes compactly in file order (then
/// registry order for counters) and hashes the concatenation. Two traced
/// runs of the same seeded workload must produce equal hashes at any
/// `APOTS_THREADS`.
///
/// Counter lines whose value is 0 are skipped: a counter the run never
/// bumped says nothing about what it did, so registering or deleting a
/// counter leaves the hash alone, while one that moves to or from 0
/// still changes it.
pub fn det_hash(text: &str) -> Result<u64, String> {
    let lines = parse_lines(text)?;
    let mut canon = String::new();
    for j in &lines {
        if !is_det(j) {
            continue;
        }
        let k = kind(j);
        let mut m = Map::new();
        m.insert("kind".into(), Json::Str(k.into()));
        m.insert("name".into(), Json::Str(name(j).into()));
        match k {
            "value" => {
                m.insert("v0".into(), j.get("v0").cloned().unwrap_or(Json::Null));
                if let Some(v1) = j.get("v1") {
                    m.insert("v1".into(), v1.clone());
                }
            }
            "counter" => {
                if f(j, "value") == Some(0.0) {
                    continue;
                }
                m.insert(
                    "value".into(),
                    j.get("value").cloned().unwrap_or(Json::Null),
                );
            }
            // Spans contribute structure only: open/close order and names.
            "span_open" | "span_close" => {}
            // meta / gauges / hists / dropped never carry det: true.
            _ => continue,
        }
        canon.push_str(&Json::Obj(m).to_string());
        canon.push('\n');
    }
    Ok(apots_serde::atomic::fnv1a_64(canon.as_bytes()))
}

fn ns_stats(count: f64, sum: f64, min: f64, max: f64) -> Map {
    let mut m = Map::new();
    m.insert("count".into(), Json::Num(count));
    m.insert("sum_ns".into(), Json::Num(sum));
    m.insert("min_ns".into(), Json::Num(min));
    m.insert("max_ns".into(), Json::Num(max));
    m.insert(
        "mean_ns".into(),
        Json::Num(if count > 0.0 { sum / count } else { 0.0 }),
    );
    m
}

/// Aggregates a JSONL trace into the `metrics-summary` report.
///
/// The report is strict JSON (round-trips through `apots-serde`) with:
/// per-epoch losses (`epochs`), divergence-sentinel rollbacks and
/// early-stop state, checkpoint I/O latencies and bytes, pool utilization
/// and the per-family kernel dispatch mix, plus the trace's deterministic
/// golden hash.
pub fn summarize(text: &str) -> Result<Json, String> {
    let lines = parse_lines(text)?;

    // --- epochs: value2 events keyed (epoch → field) --------------------
    fn epoch_slot(epochs: &mut Vec<Map>, e: f64) -> &mut Map {
        if let Some(i) = epochs
            .iter()
            .position(|m| m.get("epoch").and_then(|v| v.as_f64()) == Some(e))
        {
            return &mut epochs[i];
        }
        let mut m = Map::new();
        m.insert("epoch".into(), Json::Num(e));
        epochs.push(m);
        epochs.last_mut().unwrap()
    }
    let mut epochs: Vec<Map> = Vec::new();
    let mut rollbacks_seen = 0u64;
    let mut early_stop = Json::Null;
    let mut ckpt_bytes = 0.0f64;
    let mut region_count = 0u64;
    let mut runner_sum = 0.0f64;
    let mut task_sum = 0.0f64;
    let mut counters = Map::new();
    let mut gauges = Map::new();
    let mut hists: Vec<(String, Json)> = Vec::new();
    let mut n_events = 0u64;
    let mut dropped = 0.0f64;
    let mut attack_runs_detail: Vec<Json> = Vec::new();

    for j in &lines {
        match kind(j) {
            "value" => {
                n_events += 1;
                let nm = name(j);
                match nm {
                    "epoch.mse" | "epoch.p_loss" | "epoch.d_loss" | "epoch.grad_norm"
                    | "epoch.lr_scale" => {
                        if let (Some(e), Some(v)) = (f(j, "v0"), j.get("v1")) {
                            let field = nm.trim_start_matches("epoch.");
                            epoch_slot(&mut epochs, e).insert(field.into(), v.clone());
                        }
                    }
                    "sentinel.rollback" => rollbacks_seen += 1,
                    "earlystop.stop" => {
                        early_stop = j.get("v0").cloned().unwrap_or(Json::Null);
                    }
                    "ckpt.save.bytes" => ckpt_bytes += f(j, "v0").unwrap_or(0.0),
                    "attack.mse" => {
                        if let (Some(v0), Some(v1)) = (f(j, "v0"), f(j, "v1")) {
                            let mut m = Map::new();
                            m.insert("clean_mse".into(), Json::Num(v0));
                            m.insert("attacked_mse".into(), Json::Num(v1));
                            attack_runs_detail.push(Json::Obj(m));
                        }
                    }
                    "par.region" => {
                        region_count += 1;
                        task_sum += f(j, "v0").unwrap_or(0.0);
                        runner_sum += f(j, "v1").unwrap_or(0.0);
                    }
                    _ => {}
                }
            }
            "span_open" | "span_close" => n_events += 1,
            "counter" => {
                if let Some(v) = j.get("value") {
                    counters.insert(name(j).to_string(), v.clone());
                }
            }
            "gauge" => {
                if let Some(v) = j.get("value") {
                    gauges.insert(name(j).to_string(), v.clone());
                }
            }
            "hist" => {
                let mut stats = ns_stats(
                    f(j, "count").unwrap_or(0.0),
                    f(j, "sum").unwrap_or(0.0),
                    f(j, "min").unwrap_or(0.0),
                    f(j, "max").unwrap_or(0.0),
                );
                if let (Some(p50), Some(p99)) = (f(j, "p50"), f(j, "p99")) {
                    stats.insert("p50_ns".into(), Json::Num(p50));
                    stats.insert("p99_ns".into(), Json::Num(p99));
                }
                hists.push((name(j).to_string(), Json::Obj(stats)));
            }
            "dropped" => dropped += f(j, "count").unwrap_or(0.0),
            _ => {}
        }
    }

    let counter = |n: &str| counters.get(n).cloned().unwrap_or(Json::Num(0.0));
    let counter_f = |n: &str| counters.get(n).and_then(|v| v.as_f64()).unwrap_or(0.0);

    let mut ckpt = Map::new();
    ckpt.insert("saves".into(), counter("ckpt.saves"));
    ckpt.insert("restores".into(), counter("ckpt.restores"));
    ckpt.insert("bytes_saved".into(), Json::Num(ckpt_bytes));
    let mut serve_latency = Json::Null;
    for (nm, stats) in hists {
        let key = match nm.as_str() {
            "ckpt.save_ns" => "save_latency",
            "ckpt.restore_ns" => "restore_latency",
            // Serving latency belongs to the serve section, not the
            // checkpoint one.
            "serve.latency_ns" => {
                serve_latency = stats;
                continue;
            }
            other => other,
        };
        ckpt.insert(key.into(), stats);
    }

    let mut pool = Map::new();
    pool.insert(
        "workers".into(),
        gauges.get("par.workers").cloned().unwrap_or(Json::Num(0.0)),
    );
    pool.insert("regions_pooled".into(), counter("par.regions_pooled"));
    pool.insert("regions_inline".into(), counter("par.regions_inline"));
    pool.insert("tasks".into(), counter("par.tasks"));
    pool.insert(
        "mean_runners_per_region".into(),
        Json::Num(if region_count > 0 {
            runner_sum / region_count as f64
        } else {
            0.0
        }),
    );
    pool.insert(
        "mean_tasks_per_region".into(),
        Json::Num(if region_count > 0 {
            task_sum / region_count as f64
        } else {
            0.0
        }),
    );
    pool.insert(
        "serial_below_grain".into(),
        counter("kernel.serial_below_grain"),
    );

    let mut kernels = Map::new();
    let mut kernel_total = 0.0;
    for (nm, v) in counters.iter() {
        if let Some(short) = nm.strip_prefix("kernel.") {
            if short != "serial_below_grain" {
                kernels.insert(short.to_string(), v.clone());
                kernel_total += v.as_f64().unwrap_or(0.0);
            }
        }
    }
    kernels.insert("total_dispatches".into(), Json::Num(kernel_total));

    // --- robustness harness: attack runs and the RDAT defense ------------
    let mut attack = Map::new();
    attack.insert("runs".into(), counter("attack.runs"));
    attack.insert("queries".into(), counter("attack.queries"));
    attack.insert("rdat_steps".into(), counter("rdat.steps"));
    attack.insert("measurements".into(), Json::Arr(attack_runs_detail));

    // --- fault plane: retries taken and faults injected ------------------
    let mut io = Map::new();
    io.insert("retries".into(), counter("io.retry"));
    io.insert("faults_injected".into(), counter("faults.injected"));

    // --- online serving: request volume and snapshot hot-swaps -----------
    let mut serve = Map::new();
    serve.insert("requests".into(), counter("serve.requests"));
    serve.insert("predictions".into(), counter("serve.predictions"));
    serve.insert("batches".into(), counter("serve.batches"));
    serve.insert("swaps".into(), counter("serve.swaps"));
    serve.insert("swaps_rejected".into(), counter("serve.swaps_rejected"));
    if serve_latency != Json::Null {
        serve.insert("request_latency".into(), serve_latency);
    }

    let mut trace = Map::new();
    trace.insert("events".into(), Json::Num(n_events as f64));
    trace.insert("dropped".into(), Json::Num(dropped));

    let mut root = Map::new();
    root.insert("schema".into(), Json::Str("apots-metrics-summary".into()));
    root.insert("trace".into(), Json::Obj(trace));
    root.insert(
        "epochs".into(),
        Json::Arr(epochs.into_iter().map(Json::Obj).collect()),
    );
    root.insert(
        "rollbacks".into(),
        Json::Num(rollbacks_seen.max(counter_f("train.rollbacks") as u64) as f64),
    );
    root.insert("early_stop_epoch".into(), early_stop);
    root.insert("checkpoints".into(), Json::Obj(ckpt));
    root.insert("pool".into(), Json::Obj(pool));
    root.insert("kernels".into(), Json::Obj(kernels));
    root.insert("optim_steps".into(), counter("optim.adam_step"));
    root.insert("attack".into(), Json::Obj(attack));
    root.insert("io".into(), Json::Obj(io));
    root.insert("serve".into(), Json::Obj(serve));
    root.insert(
        "det_hash".into(),
        Json::Str(format!("{:#018x}", det_hash(text)?)),
    );
    Ok(Json::Obj(root))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"kind":"meta","schema":"apots-trace","version":1}
{"kind":"span_open","name":"train.epoch","det":true,"thread":0,"t_ns":10}
{"kind":"value","name":"epoch.mse","det":true,"thread":0,"t_ns":20,"v0":0,"v1":0.5}
{"kind":"value","name":"epoch.grad_norm","det":true,"thread":0,"t_ns":21,"v0":0,"v1":1.25}
{"kind":"value","name":"ckpt.save.bytes","det":true,"thread":0,"t_ns":25,"v0":4096}
{"kind":"value","name":"par.region","det":false,"thread":0,"t_ns":30,"v0":8,"v1":3}
{"kind":"span_close","name":"train.epoch","det":true,"thread":0,"t_ns":40,"dur_ns":30}
{"kind":"counter","name":"kernel.matmul","det":true,"value":12}
{"kind":"counter","name":"par.regions_pooled","det":false,"value":4}
{"kind":"counter","name":"ckpt.saves","det":true,"value":1}
{"kind":"gauge","name":"par.workers","det":false,"value":3}
{"kind":"hist","name":"ckpt.save_ns","det":false,"count":1,"sum":5000,"min":5000,"max":5000}
"#;

    #[test]
    fn summarize_reports_epochs_ckpt_and_pool() {
        let s = summarize(SAMPLE).unwrap();
        let epochs = s.get("epochs").unwrap().as_array().unwrap();
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].get("mse").unwrap().as_f64().unwrap(), 0.5);
        assert_eq!(epochs[0].get("grad_norm").unwrap().as_f64().unwrap(), 1.25);
        let ckpt = s.get("checkpoints").unwrap();
        assert_eq!(ckpt.get("bytes_saved").unwrap().as_f64().unwrap(), 4096.0);
        assert_eq!(
            ckpt.get("save_latency")
                .unwrap()
                .get("mean_ns")
                .unwrap()
                .as_f64(),
            Some(5000.0)
        );
        let pool = s.get("pool").unwrap();
        assert_eq!(pool.get("workers").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            pool.get("mean_runners_per_region").unwrap().as_f64(),
            Some(3.0)
        );
        // the report itself is strict JSON
        let text = s.to_string();
        Json::parse(&text).unwrap();
    }

    #[test]
    fn summarize_reports_the_attack_section() {
        let trace = r#"{"kind":"meta","schema":"apots-trace","version":1}
{"kind":"span_open","name":"attack.run","det":true,"thread":0,"t_ns":10}
{"kind":"value","name":"attack.mse","det":true,"thread":0,"t_ns":20,"v0":0.5,"v1":0.9}
{"kind":"span_close","name":"attack.run","det":true,"thread":0,"t_ns":40,"dur_ns":30}
{"kind":"counter","name":"attack.runs","det":true,"value":1}
{"kind":"counter","name":"attack.queries","det":true,"value":256}
{"kind":"counter","name":"rdat.steps","det":true,"value":8}
"#;
        let s = summarize(trace).unwrap();
        let attack = s.get("attack").unwrap();
        assert_eq!(attack.get("runs").unwrap().as_f64(), Some(1.0));
        assert_eq!(attack.get("queries").unwrap().as_f64(), Some(256.0));
        assert_eq!(attack.get("rdat_steps").unwrap().as_f64(), Some(8.0));
        let ms = attack.get("measurements").unwrap().as_array().unwrap();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get("clean_mse").unwrap().as_f64(), Some(0.5));
        assert_eq!(ms[0].get("attacked_mse").unwrap().as_f64(), Some(0.9));
        // An attack-free trace still carries the (zeroed) section.
        let plain = summarize(SAMPLE).unwrap();
        assert_eq!(
            plain.get("attack").unwrap().get("runs").unwrap().as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn summarize_reports_the_io_section() {
        let trace = r#"{"kind":"meta","schema":"apots-trace","version":1}
{"kind":"counter","name":"io.retry","det":true,"value":3}
{"kind":"counter","name":"faults.injected","det":true,"value":2}
"#;
        let s = summarize(trace).unwrap();
        let io = s.get("io").unwrap();
        assert_eq!(io.get("retries").unwrap().as_f64(), Some(3.0));
        assert_eq!(io.get("faults_injected").unwrap().as_f64(), Some(2.0));
        // A fault-free trace still carries the (zeroed) section.
        let plain = summarize(SAMPLE).unwrap();
        assert_eq!(
            plain.get("io").unwrap().get("retries").unwrap().as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn serve_latency_hist_lands_in_the_serve_section() {
        let trace = r#"{"kind":"meta","schema":"apots-trace","version":1}
{"kind":"counter","name":"serve.requests","det":false,"value":10}
{"kind":"hist","name":"serve.latency_ns","det":false,"count":10,"sum":120000,"min":9000,"max":21000,"p50":12000,"p99":21000}
"#;
        let s = summarize(trace).unwrap();
        let serve = s.get("serve").unwrap();
        let lat = serve.get("request_latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_f64(), Some(10.0));
        assert_eq!(lat.get("p50_ns").unwrap().as_f64(), Some(12000.0));
        assert_eq!(lat.get("p99_ns").unwrap().as_f64(), Some(21000.0));
        assert_eq!(lat.get("mean_ns").unwrap().as_f64(), Some(12000.0));
        // It must NOT leak into the checkpoints map.
        assert!(s
            .get("checkpoints")
            .unwrap()
            .get("serve.latency_ns")
            .is_none());
        // A latency-free trace has no request_latency key at all.
        let plain = summarize(SAMPLE).unwrap();
        assert!(plain.get("serve").unwrap().get("request_latency").is_none());
    }

    #[test]
    fn det_hash_ignores_time_thread_and_nondet_lines() {
        let base = det_hash(SAMPLE).unwrap();
        // Perturb every nondeterministic field: timestamps, durations,
        // thread ids, nondet values/counters/gauges/hists.
        let perturbed = SAMPLE
            .replace("\"t_ns\":20", "\"t_ns\":99999")
            .replace("\"thread\":0", "\"thread\":7")
            .replace("\"dur_ns\":30", "\"dur_ns\":123456")
            .replace("\"v1\":3}", "\"v1\":1}")
            .replace(
                "\"par.regions_pooled\",\"det\":false,\"value\":4",
                "\"par.regions_pooled\",\"det\":false,\"value\":9",
            )
            .replace("\"value\":3}", "\"value\":1}");
        assert_eq!(base, det_hash(&perturbed).unwrap());
    }

    #[test]
    fn det_hash_changes_when_a_det_value_changes() {
        let base = det_hash(SAMPLE).unwrap();
        let changed = SAMPLE.replace("\"v1\":0.5", "\"v1\":0.75");
        assert_ne!(base, det_hash(&changed).unwrap());
        let changed2 = SAMPLE.replace(
            "\"kernel.matmul\",\"det\":true,\"value\":12",
            "\"kernel.matmul\",\"det\":true,\"value\":13",
        );
        assert_ne!(base, det_hash(&changed2).unwrap());
    }

    #[test]
    fn det_hash_ignores_zero_valued_counters() {
        let base = det_hash(SAMPLE).unwrap();
        let with_counter = |v: u32| {
            format!(
                "{SAMPLE}{{\"kind\":\"counter\",\"name\":\"kernel.qmatmul\",\"det\":true,\"value\":{v}}}\n"
            )
        };
        assert_eq!(base, det_hash(&with_counter(0)).unwrap());
        assert_ne!(base, det_hash(&with_counter(1)).unwrap());
        // A counter that falls to 0 moves the hash too.
        let zeroed = SAMPLE.replace(
            "\"kernel.matmul\",\"det\":true,\"value\":12",
            "\"kernel.matmul\",\"det\":true,\"value\":0",
        );
        assert_ne!(base, det_hash(&zeroed).unwrap());
    }

    #[test]
    fn malformed_line_is_an_error_not_a_panic() {
        assert!(summarize("{\"kind\":\"meta\"\n").is_err());
        assert!(det_hash("not json").is_err());
    }
}
