//! End-to-end and per-layer benchmark of the APOTS workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <adv_train|serve_light|serve_heavy|network_report> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Informational lines (host facts, output
//! hashes, workload detail) come first; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set ([`END_TO_END`]) measured with telemetry
//! off; with `--trace 1` they are the per-layer set ([`PER_LAYER`]), taken
//! by timing calls into each layer's public functions from here and by
//! reading the `apots-obs` registry. NOTES.md says why each workload exists.

mod adv_train;
mod client;
mod host;
mod network;
mod probe;
mod schedule;
mod serve;
mod stats;

use std::time::{Duration, Instant};

/// End-to-end metrics every workload reports with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics every traced run reports; a layer the workload does
/// not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // adv_train: the adversarial batch, per call or per batch.
    ("core.encode_inputs_ms", "ms"),
    ("core.encode_context_ms", "ms"),
    ("core.predictor_fwd_train_ms", "ms"),
    ("core.predictor_bwd_ms", "ms"),
    ("core.disc_fwd_bwd_ms", "ms"),
    ("nn.adam_step_ms", "ms"),
    ("nn.clip_ms", "ms"),
    ("core.hotpath_share", "share"),
    ("core.hotpath_windows_per_batch", "per_batch"),
    ("tensor.kernel_calls.matmul", "per_op"),
    ("tensor.kernel_calls.matmul_at_b", "per_op"),
    ("tensor.kernel_calls.matmul_a_bt", "per_op"),
    ("tensor.kernel_calls.matmul_flat", "per_op"),
    ("tensor.kernel_calls.map", "per_op"),
    ("tensor.kernel_calls.zip", "per_op"),
    ("tensor.kernel_calls.sum_axis0", "per_op"),
    ("tensor.kernel_calls.add_row_broadcast", "per_op"),
    ("tensor.serial_below_grain_share", "share"),
    ("par.regions_pooled", "per_op"),
    ("par.regions_inline", "per_op"),
    ("par.tasks", "per_op"),
    // serve_light / serve_heavy: one request.
    ("serve.http_parse_us", "us"),
    ("serve.response_format_us", "us"),
    ("traffic.features_for_road_us", "us"),
    ("core.encode_features_us", "us"),
    ("core.predictor_fwd_infer_us.b1", "us"),
    ("core.predictor_fwd_infer_us.b2", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.outside_server_us", "us"),
    ("serve.batch_size_mean", "per_batch"),
    ("serve.queue_wait_us", "us"),
    ("serve.generator_late_ms_p99", "ms"),
    ("tensor.kernel_calls.qmatmul", "per_op"),
    ("tensor.kernel_calls.quantize", "per_op"),
    // network_report: corpus generation and the report grid.
    ("traffic.spec_parse_us", "us"),
    ("traffic.propagation_s", "s"),
    ("traffic.corpus_rest_s", "s"),
    ("traffic.dataset_for_ms", "ms"),
    ("core.train_cell_s.F", "s"),
    ("core.train_cell_s.L", "s"),
    ("core.train_cell_s.C", "s"),
    ("core.train_cell_s.H", "s"),
    ("core.eval_ms", "ms"),
    ("core.eval_outage_ms", "ms"),
    ("par.fanout_efficiency", "share"),
    // Every workload.
    ("obs.trace_overhead", "share"),
    ("coverage", "share"),
];

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: &[&str] = &["adv_train", "serve_light", "serve_heavy", "network_report"];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks; the run is correct when all hold.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines printed before the result (hashes, detail figures).
    pub info: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Times `f` once, in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Sets up repeatedly, at least three times and for at least half a
/// second, and returns the last result with every set-up time (stolen CPU
/// time taken out). Earlier results go to `discard`.
pub fn set_up<T>(mut build: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, Vec<f64>) {
    let t0 = Instant::now();
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    while times.len() < 3 || t0.elapsed() < Duration::from_millis(500) {
        if let Some(old) = last.take() {
            discard(old);
        }
        let clock = host::StealClock::start();
        let (v, secs) = timed(&mut build);
        times.push(secs * (1.0 - clock.fraction()));
        last = Some(v);
    }
    (last.expect("set up at least once"), times)
}

/// Mean seconds per call of `f` (stolen CPU time taken out), repeated
/// until at least `min` has passed and at least three times, after one
/// untimed call.
pub fn per_call(min: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let clock = host::StealClock::start();
    let t0 = Instant::now();
    let mut n = 0u32;
    while n < 3 || t0.elapsed() < min {
        f();
        n += 1;
    }
    t0.elapsed().as_secs_f64() * (1.0 - clock.fraction()) / f64::from(n)
}

/// FNV-1a 64 over bytes.
pub fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn usage() -> ! {
    eprintln!(
        "usage: apots-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> (String, RunArgs) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) if WORKLOADS.contains(&w.as_str()) => (
            w,
            RunArgs {
                seed,
                seconds,
                trace,
            },
        ),
        _ => usage(),
    }
}

/// Renders the result line, checking that the metric set is exactly the
/// one BENCHMARK.json declares for this mode.
fn result_line(out: &Outcome, trace: bool) -> String {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::new();
    for (name, unit) in declared {
        let value = match out.metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) => *v,
            None if trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        body.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for (name, _) in &out.metrics {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "undeclared metric {name}"
        );
    }
    let correct = out.failed == 0 && out.checks.iter().all(|(_, ok)| *ok);
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        body.join(",")
    )
}

fn main() {
    let (workload, args) = parse_args();
    // The compute pool is pinned to the machine's CPU count, recorded
    // with the host facts.
    apots_par::set_threads(host::nproc());
    println!(
        "host {}",
        host::facts_json(&workload, args.seed, args.seconds as u64, args.trace)
    );
    let out = match workload.as_str() {
        "adv_train" => adv_train::run(&args),
        "serve_light" => serve::run(serve::Lane::Light, &args),
        "serve_heavy" => serve::run(serve::Lane::Heavy, &args),
        "network_report" => network::run(&args),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    for line in &out.info {
        println!("{line}");
    }
    for (name, ok) in &out.checks {
        if !ok {
            println!("check failed: {name}");
        }
    }
    println!("{}", result_line(&out, args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must declare exactly the
    /// workloads and metrics this program emits.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = apots_serde::Json::parse(&text).expect("BENCHMARK.json is strict JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(apots_serde::Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(apots_serde::Json::as_str).unwrap_or("");
                    (s("name").to_string(), s("unit").to_string())
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<(String, String)> = names("workloads");
        let listed: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(listed, WORKLOADS);
    }

    #[test]
    fn result_line_fills_unreached_layers_with_zero() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("coverage", 0.5);
        let line = result_line(&out, true);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"coverage\":{\"value\":0.5,\"unit\":\"share\"}"));
        assert!(line.contains("\"nn.clip_ms\":{\"value\":0,\"unit\":\"ms\"}"));
        apots_serde::Json::parse(&line).expect("result line is strict JSON");
    }
}
