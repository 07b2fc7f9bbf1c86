//! In-house benchmark harness for the APOTS reproduction.
//!
//! A minimal, criterion-shaped timing harness so the bench targets
//! under `benches/` keep their structure while the workspace stays free
//! of external crates. The API mirrors the slice of `criterion` the
//! repo used: [`Criterion::default`] with [`sample_size`](Criterion::sample_size),
//! [`warm_up_time`](Criterion::warm_up_time) and
//! [`measurement_time`](Criterion::measurement_time) builders,
//! [`bench_function`](Criterion::bench_function) with `|b| b.iter(...)`,
//! and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Each benchmark is warmed up for the configured duration, then timed
//! over `sample_size` samples (each sample runs enough iterations to
//! fill its share of the measurement budget). The harness reports the
//! median and p95 per-iteration time and, when run under `cargo bench`,
//! appends every result to `BENCH_<target>.json` (in the working
//! directory, overridable via `APOTS_BENCH_DIR`).
//!
//! `cargo test --benches` invokes the same binaries with `--test`; in
//! that mode every benchmark body runs exactly once as a smoke test and
//! by default no JSON is written, keeping tier-1 fast. Setting
//! `APOTS_BENCH_SMOKE_EMIT=1` makes smoke mode record its single-run
//! timings and emit the `BENCH_<target>.json` report anyway (tagged
//! `"mode": "smoke"`), which is how CI keeps a bench trajectory without
//! paying for a full measurement run.

pub mod alloc_count;

use std::time::{Duration, Instant};

/// One measured benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    pub samples: usize,
    pub iters_per_sample: u64,
    pub mean_ns: f64,
    pub median_ns: f64,
    pub p95_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
}

impl BenchResult {
    fn to_json(&self) -> apots_serde::Json {
        apots_serde::json!({
            "name": self.name.as_str(),
            "samples": self.samples,
            "iters_per_sample": self.iters_per_sample as f64,
            "mean_ns": self.mean_ns,
            "median_ns": self.median_ns,
            "p95_ns": self.p95_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns
        })
    }
}

/// Host facts written next to every figure in a `BENCH_*.json`: logical
/// CPUs, the pool's default thread count (`APOTS_THREADS`, else the
/// CPUs) and the measured commit (`null` outside a git work tree). A bench
/// named `threadsN` pins `N` itself, so a `threads4` figure from a host
/// with `nproc: 2` reads as oversubscribed.
#[must_use]
pub fn host_json() -> apots_serde::Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    apots_serde::json!({
        "nproc": nproc,
        "pool_threads": apots_par::current_threads(),
        "commit": git_commit().map_or(apots_serde::Json::Null, apots_serde::Json::from)
    })
}

/// The checked-out commit of the git work tree holding the current
/// directory, read from its `.git` directory (no `git` process); `None`
/// outside a work tree, e.g. in an exported source tree.
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = cwd
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.exists())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| Some(l.strip_suffix(r)?.strip_suffix(' ')?.to_string()))
}

/// How the harness was invoked (criterion-compatible flag handling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `cargo bench` — full warmup + measurement + JSON report.
    Measure,
    /// `cargo test --benches` passes `--test`: run each body once.
    Smoke,
}

fn mode_from_args() -> Mode {
    if std::env::args().any(|a| a == "--test") {
        Mode::Smoke
    } else {
        Mode::Measure
    }
}

/// Optional positional filter: `cargo bench -- matmul` only runs
/// benchmarks whose name contains "matmul".
fn filter_from_args() -> Option<String> {
    std::env::args().skip(1).find(|a| !a.starts_with('-'))
}

/// The benchmark driver. Mirrors criterion's builder surface.
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    target: Option<String>,
    results: Vec<BenchResult>,
    mode: Mode,
    filter: Option<String>,
    smoke_emit: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(2),
            target: None,
            results: Vec::new(),
            mode: mode_from_args(),
            filter: filter_from_args(),
            smoke_emit: matches!(
                std::env::var("APOTS_BENCH_SMOKE_EMIT").as_deref(),
                Ok("1") | Ok("true")
            ),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark (criterion-compatible).
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Warmup budget before measurement starts (criterion-compatible).
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Total measurement budget per benchmark (criterion-compatible).
    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Tags the driver with the bench target name; used by
    /// [`criterion_group!`] so the JSON report lands in
    /// `BENCH_<target>.json`.
    pub fn set_target(&mut self, target: &str) {
        self.target = Some(target.to_string());
    }

    /// Runs (or smoke-tests) one benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut body: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(f) = &self.filter {
            if !name.contains(f.as_str()) {
                return self;
            }
        }
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        if self.mode == Mode::Smoke {
            b.iters = 1;
            b.elapsed = Duration::ZERO;
            body(&mut b);
            if self.smoke_emit {
                // One timed run is a coarse but free datapoint: it keeps
                // the CI bench trajectory populated on every verify run.
                let ns = b.elapsed.as_nanos() as f64;
                self.results.push(BenchResult {
                    name: name.to_string(),
                    samples: 1,
                    iters_per_sample: 1,
                    mean_ns: ns,
                    median_ns: ns,
                    p95_ns: ns,
                    min_ns: ns,
                    max_ns: ns,
                });
            }
            println!("test {name} ... ok (smoke)");
            return self;
        }

        // Warmup: run the body repeatedly until the budget elapses,
        // estimating the per-iteration cost as we go.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up || warm_iters == 0 {
            b.iters = 1;
            body(&mut b);
            warm_iters += 1;
        }
        let est_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Each of the `sample_size` samples gets an equal slice of the
        // measurement budget; run as many iterations as fit in a slice.
        let slice = self.measurement.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((slice / est_iter.max(1e-9)) as u64).max(1);
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            b.iters = iters_per_sample;
            b.elapsed = Duration::ZERO;
            body(&mut b);
            per_iter_ns.push(b.elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let result = BenchResult {
            name: name.to_string(),
            samples: self.sample_size,
            iters_per_sample,
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
            median_ns: percentile(&per_iter_ns, 50.0),
            p95_ns: percentile(&per_iter_ns, 95.0),
            min_ns: per_iter_ns[0],
            max_ns: *per_iter_ns.last().unwrap(),
        };
        println!(
            "{name:<44} median {:>12} p95 {:>12} ({} samples x {} iters)",
            fmt_ns(result.median_ns),
            fmt_ns(result.p95_ns),
            result.samples,
            result.iters_per_sample,
        );
        self.results.push(result);
        self
    }

    /// Writes `BENCH_<target>.json` with everything measured so far.
    /// Called automatically when the driver is dropped after a
    /// `cargo bench` run.
    pub fn write_report(&mut self) {
        if (self.mode == Mode::Smoke && !self.smoke_emit) || self.results.is_empty() {
            return;
        }
        let target = self.target.clone().unwrap_or_else(|| "bench".to_string());
        let dir = std::env::var("APOTS_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = format!("{dir}/BENCH_{target}.json");
        let mut obj = apots_serde::Map::new();
        obj.insert("target".into(), apots_serde::Json::from(target.as_str()));
        obj.insert(
            "mode".into(),
            apots_serde::Json::from(if self.mode == Mode::Smoke {
                "smoke"
            } else {
                "measure"
            }),
        );
        obj.insert("host".into(), host_json());
        obj.insert(
            "results".into(),
            apots_serde::Json::Arr(self.results.iter().map(BenchResult::to_json).collect()),
        );
        let doc = apots_serde::Json::Obj(obj);
        match std::fs::write(&path, doc.to_string_pretty() + "\n") {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("apots-bench: could not write {path}: {e}"),
        }
        self.results.clear();
    }

    /// Measured results so far (used by the harness's own tests).
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        self.write_report();
    }
}

/// Sorted-input percentile with linear interpolation.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Passed to each benchmark body; `iter` times the closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` over the harness-chosen iteration count. The return
    /// value is passed through [`std::hint::black_box`] so the work is
    /// not optimised away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Declares a bench group: a function running each target against one
/// configured [`Criterion`] tagged with the bench binary's name.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            criterion.set_target(env!("CARGO_CRATE_NAME"));
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Criterion {
        Criterion {
            sample_size: 5,
            warm_up: Duration::from_millis(5),
            measurement: Duration::from_millis(20),
            target: None,
            results: Vec::new(),
            mode: Mode::Measure,
            filter: None,
            smoke_emit: false,
        }
    }

    #[test]
    fn measures_and_orders_statistics() {
        let mut c = quiet();
        c.bench_function("spin", |b| {
            b.iter(|| (0..100u64).fold(0u64, |a, x| a.wrapping_add(x * x)))
        });
        let r = &c.results()[0];
        assert_eq!(r.samples, 5);
        assert!(r.iters_per_sample >= 1);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns + 1e-9);
        assert!(r.p95_ns <= r.max_ns + 1e-9);
        assert!(r.mean_ns >= r.min_ns && r.mean_ns <= r.max_ns);
        c.results.clear(); // keep Drop from writing a report in tests
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn host_facts_name_cpus_and_pool_threads() {
        let host = host_json();
        let nproc = host.get("nproc").and_then(|v| v.as_f64()).unwrap();
        let threads = host.get("pool_threads").and_then(|v| v.as_f64()).unwrap();
        assert!(nproc >= 1.0 && threads >= 1.0, "{host:?}");
        // A hex object id inside a work tree, null in an exported tree.
        match host.get("commit") {
            Some(apots_serde::Json::Null) => {}
            Some(apots_serde::Json::Str(id)) => assert!(
                id.len() >= 40 && id.bytes().all(|b| b.is_ascii_hexdigit()),
                "{id:?}"
            ),
            other => panic!("commit must be a string or null, got {other:?}"),
        }
    }

    #[test]
    fn report_json_round_trips() {
        let r = BenchResult {
            name: "m".into(),
            samples: 3,
            iters_per_sample: 10,
            mean_ns: 1.5,
            median_ns: 1.25,
            p95_ns: 2.0,
            min_ns: 1.0,
            max_ns: 2.5,
        };
        let text = r.to_json().to_string();
        let back = apots_serde::Json::parse(&text).unwrap();
        assert_eq!(back.get("name").and_then(|v| v.as_str()), Some("m"));
        assert_eq!(back.get("median_ns").and_then(|v| v.as_f64()), Some(1.25));
    }
}
