//! Global metric registry: const-constructible counters, gauges and
//! histograms backed by relaxed atomics.
//!
//! Every metric is declared once, in the `registry!` block at the end of
//! this module: that gives its `pub static` and its entry in [`REGISTRY`],
//! which [`reset_all`], the trace snapshot ([`crate::render`]) and
//! [`section`] walk. A metric named `section.key` is filed by
//! `metrics-summary` at `summary[section][key]`. Update paths gate on
//! [`crate::enabled`] internally, so an instrumentation site is a single
//! call whose disabled cost is one relaxed atomic load.
//!
//! `det: true` counters must be thread-count-invariant: they are bumped at
//! dispatch entry (before any threading decision) or on the main training
//! thread only. Pool-shape metrics (worker counts, pooled-region tallies)
//! are `det: false` and excluded from the golden trace hash.

use std::sync::atomic::{AtomicU64, Ordering};

use apots_serde::{Json, Map};

use crate::enabled;

/// Monotonic event tally.
pub struct Counter {
    name: &'static str,
    det: bool,
    v: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str, det: bool) -> Self {
        Counter {
            name,
            det,
            v: AtomicU64::new(0),
        }
    }

    /// Adds `n`; a no-op (one relaxed load) when tracing is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Bumps by one.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins instantaneous value.
pub struct Gauge {
    name: &'static str,
    v: AtomicU64,
}

impl Gauge {
    const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            v: AtomicU64::new(0),
        }
    }

    /// Sets the gauge; a no-op when tracing is disabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.v.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (high-water mark).
    #[inline]
    pub fn raise(&self, v: u64) {
        if enabled() {
            self.v.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// Number of log2 magnitude buckets a [`Histogram`] tracks. Bucket `i`
/// counts samples whose bit width is `i` (i.e. values in
/// `[2^(i-1), 2^i)`; bucket 0 counts zeros), covering the full `u64`
/// range.
pub const HIST_BUCKETS: usize = 65;

/// Lock-free count/sum/min/max aggregate over `u64` samples (typically
/// nanosecond durations), plus log2 magnitude buckets so percentiles can
/// be estimated without retaining samples.
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// Point-in-time histogram aggregate.
#[derive(Clone, Copy, Debug)]
pub struct HistSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` sentinel internally; 0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated 50th-percentile sample (log2-bucket midpoint).
    pub p50: u64,
    /// Estimated 99th-percentile sample (log2-bucket midpoint).
    pub p99: u64,
}

impl Histogram {
    const fn new(name: &'static str) -> Self {
        // `AtomicU64` is not `Copy`; build the bucket array by const
        // repetition of an initializer constant.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [ZERO; HIST_BUCKETS],
        }
    }

    /// Bucket index for a sample: its bit width (0 for a zero sample).
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Midpoint of bucket `i`'s value range, used as the percentile
    /// estimate for samples that landed there.
    fn bucket_mid(i: usize) -> u64 {
        if i == 0 {
            return 0;
        }
        let lo = 1u64 << (i - 1);
        let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
        lo + (hi - lo) / 2
    }

    /// Records one sample; a no-op when tracing is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Estimates the `p`-th percentile (`0.0..=1.0`) from the log2
    /// buckets: the midpoint of the bucket holding the rank-`p` sample,
    /// clamped to the observed min/max. Resolution is a factor of 2,
    /// which is enough for latency triage (p50 vs p99 separation).
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((count as f64 * p).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let min = self.min.load(Ordering::Relaxed);
                let max = self.max.load(Ordering::Relaxed);
                return Self::bucket_mid(i).clamp(min, max);
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Current aggregate.
    pub fn snapshot(&self) -> HistSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let raw_min = self.min.load(Ordering::Relaxed);
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { raw_min },
            max: self.max.load(Ordering::Relaxed),
            p50: self.percentile(0.50),
            p99: self.percentile(0.99),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// One registered metric, as [`REGISTRY`] lists it.
#[derive(Clone, Copy)]
pub enum Metric {
    /// A [`Counter`].
    Counter(&'static Counter),
    /// A [`Gauge`].
    Gauge(&'static Gauge),
    /// A [`Histogram`].
    Hist(&'static Histogram),
}

impl Metric {
    /// Metric name (`section.key`).
    pub fn name(self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name,
            Metric::Gauge(g) => g.name,
            Metric::Hist(h) => h.name,
        }
    }

    /// The trace line kind: `counter`, `gauge` or `hist`.
    pub(crate) fn kind(self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Hist(_) => "hist",
        }
    }

    /// Whether the metric is deterministic (golden-hash eligible); only a
    /// counter can be.
    pub fn det(self) -> bool {
        matches!(self, Metric::Counter(c) if c.det)
    }

    /// The live value, as the payload fields of its trace line: `value`
    /// for a counter or gauge; `count`, `sum`, `min`, `max`, `p50` and
    /// `p99` for a histogram.
    pub(crate) fn fields(self) -> Map {
        let mut m = Map::new();
        let mut put = |k: &str, v: u64| m.insert(k.into(), v.into());
        match self {
            Metric::Counter(c) => put("value", c.get()),
            Metric::Gauge(g) => put("value", g.get()),
            Metric::Hist(h) => {
                let s = h.snapshot();
                put("count", s.count);
                put("sum", s.sum);
                put("min", s.min);
                put("max", s.max);
                put("p50", s.p50);
                put("p99", s.p99);
            }
        }
        m
    }

    fn reset(self) {
        match self {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Hist(h) => h.reset(),
        }
    }
}

/// Declares every metric once: each `pub static`, and [`REGISTRY`] in
/// snapshot order (counters, gauges, then histograms, each in the order
/// declared).
macro_rules! registry {
    (
        counters { $($(#[$c_doc:meta])* $c:ident: $c_name:literal, det = $c_det:literal;)* }
        gauges { $($(#[$g_doc:meta])* $g:ident: $g_name:literal;)* }
        histograms { $($(#[$h_doc:meta])* $h:ident: $h_name:literal;)* }
    ) => {
        $($(#[$c_doc])* pub static $c: Counter = Counter::new($c_name, $c_det);)*
        $($(#[$g_doc])* pub static $g: Gauge = Gauge::new($g_name);)*
        $($(#[$h_doc])* pub static $h: Histogram = Histogram::new($h_name);)*

        /// Every registered metric, in snapshot order.
        pub static REGISTRY: &[Metric] = &[
            $(Metric::Counter(&$c),)*
            $(Metric::Gauge(&$g),)*
            $(Metric::Hist(&$h),)*
        ];
    };
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

registry! {
    counters {
        /// Square matmul dispatches (`matmul_into` family entry).
        KERNEL_MATMUL: "kernel.matmul", det = true;
        /// `AᵀB` matmul dispatches.
        KERNEL_MATMUL_AT_B: "kernel.matmul_at_b", det = true;
        /// `ABᵀ` matmul dispatches.
        KERNEL_MATMUL_A_BT: "kernel.matmul_a_bt", det = true;
        /// Flat (time-batched) matmul dispatches.
        KERNEL_MATMUL_FLAT: "kernel.matmul_flat", det = true;
        /// Elementwise map dispatches (`map`/`map_into`/`map_in_place`/`par_map`).
        KERNEL_MAP: "kernel.map", det = true;
        /// Elementwise zip dispatches (`zip_with` family).
        KERNEL_ZIP: "kernel.zip", det = true;
        /// Axis-0 reduction dispatches.
        KERNEL_SUM_AXIS0: "kernel.sum_axis0", det = true;
        /// Row-broadcast add dispatches.
        KERNEL_ADD_ROW_BROADCAST: "kernel.add_row_broadcast", det = true;
        /// Matmul dispatches that stayed serial under the `PAR_GRAIN_MACS` gate.
        /// Size-based, decided before any threading — deterministic.
        KERNEL_SERIAL_BELOW_GRAIN: "kernel.serial_below_grain", det = true;
        /// Int8×int8 matmul dispatches (the `InferenceMode::Int8` lane; must
        /// stay 0 across any training run).
        KERNEL_QMATMUL: "kernel.qmatmul", det = true;
        /// Weight-matrix quantizations performed (checkpoint-load / prepare
        /// time, plus per-batch activation-row quantization dispatches).
        KERNEL_QUANTIZE: "kernel.quantize", det = true;
        /// Adam optimizer steps.
        OPTIM_ADAM_STEP: "optim.adam_step", det = true;
        /// Divergence-sentinel epoch rollbacks.
        TRAIN_ROLLBACKS: "train.rollbacks", det = true;
        /// Checkpoint saves completed.
        CKPT_SAVES: "ckpt.saves", det = true;
        /// Checkpoint restores completed.
        CKPT_RESTORES: "ckpt.restores", det = true;
        /// Parallel regions executed on the worker pool (thread-count-dependent).
        PAR_REGIONS_POOLED: "par.regions_pooled", det = false;
        /// Parallel regions executed inline (serial path / nested / below grain).
        PAR_REGIONS_INLINE: "par.regions_inline", det = false;
        /// Tasks distributed across pooled regions.
        PAR_TASKS: "par.tasks", det = false;
        /// Black-box attack runs completed (one per attack × model evaluation).
        ATTACK_RUNS: "attack.runs", det = true;
        /// Model forward queries consumed by black-box attacks.
        ATTACK_QUERIES: "attack.queries", det = true;
        /// RDAT robust steps taken (one per batch when the defense is enabled).
        RDAT_STEPS: "rdat.steps", det = true;
        /// I/O retries taken by the bounded retry policy (save/restore path).
        IO_RETRIES: "io.retry", det = true;
        /// Faults injected by the `apots-faults` shim (0 unless a fault backend
        /// is armed; deterministic given the `APOTS_FAULTS` spec).
        FAULTS_INJECTED: "faults.injected", det = true;
        /// HTTP requests answered by `apots-serve` (all endpoints; deterministic
        /// for a fixed query storm).
        SERVE_REQUESTS: "serve.requests", det = true;
        /// Predictions computed by `apots-serve` (one per `/predict` query;
        /// deterministic for a fixed query storm).
        SERVE_PREDICTIONS: "serve.predictions", det = true;
        /// Forward passes run by `apots-serve`: one per prediction, since each
        /// request is answered alone by the worker that parsed it.
        SERVE_BATCHES: "serve.batches", det = false;
        /// Model snapshots hot-swapped in by the serve watcher (depends on
        /// poll timing relative to checkpoint writes).
        SERVE_SWAPS: "serve.swaps", det = false;
        /// Snapshot candidates rejected by the serve watcher (torn, corrupt or
        /// shape-mismatched checkpoints that must never reach traffic).
        SERVE_SWAPS_REJECTED: "serve.swaps_rejected", det = false;
        /// Scenario corpora realized from a parsed network-scenario spec (bumped
        /// once per generation on the driving thread).
        SCENARIO_CORPORA: "scenario.corpora", det = true;
        /// Evaluation segments selected by a network scenario report.
        SCENARIO_SEGMENTS: "scenario.segments", det = true;
        /// Per-(segment × predictor-kind) grid runs fanned out by a network
        /// scenario report (counted at job creation, before any threading
        /// decision — deterministic).
        SCENARIO_RUNS: "scenario.runs", det = true;
    }
    gauges {
        /// High-water mark of live pool worker threads.
        GAUGE_PAR_WORKERS: "par.workers";
    }
    histograms {
        /// Checkpoint save latency (ns).
        HIST_CKPT_SAVE_NS: "ckpt.save_ns";
        /// Checkpoint restore latency (ns).
        HIST_CKPT_RESTORE_NS: "ckpt.restore_ns";
        /// Per-request `apots-serve` latency (ns), recorded per HTTP request by
        /// the connection workers (read → respond → body staged).
        HIST_SERVE_LATENCY_NS: "serve.latency_ns";
    }
}

/// Zeroes every registered metric (fresh session).
pub fn reset_all() {
    for m in REGISTRY {
        m.reset();
    }
}

/// The live value of every metric named `section.key`, keyed by `key`:
/// a counter's or gauge's value, or an object of a histogram's `count`,
/// `sum`, `min`, `max`, `p50` and `p99`. Serve's `/metrics` body is the
/// `serve` section plus its own keys.
pub fn section(section: &str) -> Map {
    REGISTRY
        .iter()
        .filter_map(|m| {
            let key = m.name().strip_prefix(section)?.strip_prefix('.')?;
            let fields = m.fields();
            let value = match m {
                Metric::Hist(_) => Json::Obj(fields),
                _ => fields.get("value")?.clone(),
            };
            Some((key.to_string(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|m| m.name()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name in registry");
    }

    #[test]
    fn histogram_snapshot_empty_min_is_zero() {
        let h = Histogram::new("t");
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!((s.p50, s.p99), (0, 0));
    }

    /// Feeds samples past the `enabled()` gate by writing the aggregate
    /// fields directly (same module, so privates are visible) — unit
    /// tests must not flip the process-global tracing switch.
    fn feed(h: &Histogram, v: u64) {
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        h.buckets[Histogram::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    #[test]
    fn histogram_percentiles_separate_the_tail() {
        let h = Histogram::new("t");
        // 98 fast samples near 1000ns, two slow outliers at ~1ms (rank
        // ceil(100·0.99) = 99 falls on the first outlier).
        for _ in 0..98 {
            feed(&h, 1_000);
        }
        feed(&h, 1_048_576);
        feed(&h, 1_048_576);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 lands in the 1000ns bucket (log2 midpoint, clamped to the
        // observed range); p99 must reach the outlier's bucket.
        assert!(s.p50 >= 1_000 && s.p50 < 2_048, "p50 = {}", s.p50);
        assert!(s.p99 >= 524_288, "p99 = {}", s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn histogram_percentile_clamps_to_observed_range() {
        let h = Histogram::new("t");
        feed(&h, 700);
        let s = h.snapshot();
        // One sample: every percentile is that sample (bucket midpoint
        // clamped to min == max == 700).
        assert_eq!(s.p50, 700);
        assert_eq!(s.p99, 700);
    }

    #[test]
    fn bucket_of_covers_the_u64_range() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Each bucket's midpoint sits inside its range.
        for i in 1..HIST_BUCKETS {
            assert_eq!(Histogram::bucket_of(Histogram::bucket_mid(i)), i, "{i}");
        }
    }
}
