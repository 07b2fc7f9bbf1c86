//! Global metric registry: const-constructible counters, gauges and
//! histograms backed by relaxed atomics.
//!
//! Every metric is a `static` declared here and listed in one of the
//! `ALL_*` slices so [`crate::render`] can snapshot the registry and
//! [`reset_all`] can start a fresh session. Update paths gate on
//! [`crate::enabled`] internally, so an instrumentation site is a single
//! call whose disabled cost is one relaxed atomic load.
//!
//! `det: true` counters must be thread-count-invariant: they are bumped at
//! dispatch entry (before any threading decision) or on the main training
//! thread only. Pool-shape metrics (worker counts, pooled-region tallies)
//! are `det: false` and excluded from the golden trace hash.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::enabled;

/// Monotonic event tally.
pub struct Counter {
    name: &'static str,
    det: bool,
    v: AtomicU64,
}

impl Counter {
    /// Const-constructs a counter (declare as `static`, list in
    /// [`ALL_COUNTERS`]).
    pub const fn new(name: &'static str, det: bool) -> Self {
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

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether this counter is deterministic (golden-hash eligible).
    pub fn det(&self) -> bool {
        self.det
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
    /// Const-constructs a gauge (declare as `static`, list in
    /// [`ALL_GAUGES`]).
    pub const fn new(name: &'static str) -> Self {
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

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
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
    /// Const-constructs a histogram (declare as `static`, list in
    /// [`ALL_HISTS`]).
    pub const fn new(name: &'static str) -> Self {
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

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
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

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Square matmul dispatches (`matmul_into` family entry).
pub static KERNEL_MATMUL: Counter = Counter::new("kernel.matmul", true);
/// `AᵀB` matmul dispatches.
pub static KERNEL_MATMUL_AT_B: Counter = Counter::new("kernel.matmul_at_b", true);
/// `ABᵀ` matmul dispatches.
pub static KERNEL_MATMUL_A_BT: Counter = Counter::new("kernel.matmul_a_bt", true);
/// Flat (time-batched) matmul dispatches.
pub static KERNEL_MATMUL_FLAT: Counter = Counter::new("kernel.matmul_flat", true);
/// Elementwise map dispatches (`map`/`map_into`/`map_in_place`/`par_map`).
pub static KERNEL_MAP: Counter = Counter::new("kernel.map", true);
/// Elementwise zip dispatches (`zip_with` family).
pub static KERNEL_ZIP: Counter = Counter::new("kernel.zip", true);
/// Axis-0 reduction dispatches.
pub static KERNEL_SUM_AXIS0: Counter = Counter::new("kernel.sum_axis0", true);
/// Row-broadcast add dispatches.
pub static KERNEL_ADD_ROW_BROADCAST: Counter = Counter::new("kernel.add_row_broadcast", true);
/// Matmul dispatches that stayed serial under the `PAR_GRAIN_MACS` gate.
/// Size-based, decided before any threading — deterministic.
pub static KERNEL_SERIAL_BELOW_GRAIN: Counter = Counter::new("kernel.serial_below_grain", true);
/// Int8×int8 matmul dispatches (the `InferenceMode::Int8` lane; must
/// stay 0 across any training run).
pub static KERNEL_QMATMUL: Counter = Counter::new("kernel.qmatmul", true);
/// Weight-matrix quantizations performed (checkpoint-load / prepare
/// time, plus per-batch activation-row quantization dispatches).
pub static KERNEL_QUANTIZE: Counter = Counter::new("kernel.quantize", true);
/// Adam optimizer steps.
pub static OPTIM_ADAM_STEP: Counter = Counter::new("optim.adam_step", true);
/// Divergence-sentinel epoch rollbacks.
pub static TRAIN_ROLLBACKS: Counter = Counter::new("train.rollbacks", true);
/// Checkpoint saves completed.
pub static CKPT_SAVES: Counter = Counter::new("ckpt.saves", true);
/// Checkpoint restores completed.
pub static CKPT_RESTORES: Counter = Counter::new("ckpt.restores", true);
/// Parallel regions executed on the worker pool (thread-count-dependent).
pub static PAR_REGIONS_POOLED: Counter = Counter::new("par.regions_pooled", false);
/// Parallel regions executed inline (serial path / nested / below grain).
pub static PAR_REGIONS_INLINE: Counter = Counter::new("par.regions_inline", false);
/// Tasks distributed across pooled regions.
pub static PAR_TASKS: Counter = Counter::new("par.tasks", false);
/// Black-box attack runs completed (one per attack × model evaluation).
pub static ATTACK_RUNS: Counter = Counter::new("attack.runs", true);
/// Model forward queries consumed by black-box attacks.
pub static ATTACK_QUERIES: Counter = Counter::new("attack.queries", true);
/// RDAT robust steps taken (one per batch when the defense is enabled).
pub static RDAT_STEPS: Counter = Counter::new("rdat.steps", true);
/// I/O retries taken by the bounded retry policy (save/restore path).
pub static IO_RETRIES: Counter = Counter::new("io.retry", true);
/// Faults injected by the `apots-faults` shim (0 unless a fault backend
/// is armed; deterministic given the `APOTS_FAULTS` spec).
pub static FAULTS_INJECTED: Counter = Counter::new("faults.injected", true);
/// HTTP requests answered by `apots-serve` (all endpoints; deterministic
/// for a fixed query storm).
pub static SERVE_REQUESTS: Counter = Counter::new("serve.requests", true);
/// Predictions computed by `apots-serve` (one per `/predict` query;
/// deterministic for a fixed query storm).
pub static SERVE_PREDICTIONS: Counter = Counter::new("serve.predictions", true);
/// Forward passes run by `apots-serve`: one per prediction, since each
/// request is answered alone by the worker that parsed it.
pub static SERVE_BATCHES: Counter = Counter::new("serve.batches", false);
/// Model snapshots hot-swapped in by the serve watcher (depends on
/// poll timing relative to checkpoint writes).
pub static SERVE_SWAPS: Counter = Counter::new("serve.swaps", false);
/// Snapshot candidates rejected by the serve watcher (torn, corrupt or
/// shape-mismatched checkpoints that must never reach traffic).
pub static SERVE_SWAPS_REJECTED: Counter = Counter::new("serve.swaps_rejected", false);
/// Scenario corpora realized from a parsed network-scenario spec (bumped
/// once per generation on the driving thread).
pub static SCENARIO_CORPORA: Counter = Counter::new("scenario.corpora", true);
/// Evaluation segments selected by a network scenario report.
pub static SCENARIO_SEGMENTS: Counter = Counter::new("scenario.segments", true);
/// Per-(segment × predictor-kind) grid runs fanned out by a network
/// scenario report (counted at job creation, before any threading
/// decision — deterministic).
pub static SCENARIO_RUNS: Counter = Counter::new("scenario.runs", true);

/// Every registered counter, in stable snapshot order.
pub static ALL_COUNTERS: &[&Counter] = &[
    &KERNEL_MATMUL,
    &KERNEL_MATMUL_AT_B,
    &KERNEL_MATMUL_A_BT,
    &KERNEL_MATMUL_FLAT,
    &KERNEL_MAP,
    &KERNEL_ZIP,
    &KERNEL_SUM_AXIS0,
    &KERNEL_ADD_ROW_BROADCAST,
    &KERNEL_SERIAL_BELOW_GRAIN,
    &KERNEL_QMATMUL,
    &KERNEL_QUANTIZE,
    &OPTIM_ADAM_STEP,
    &TRAIN_ROLLBACKS,
    &CKPT_SAVES,
    &CKPT_RESTORES,
    &PAR_REGIONS_POOLED,
    &PAR_REGIONS_INLINE,
    &PAR_TASKS,
    &ATTACK_RUNS,
    &ATTACK_QUERIES,
    &RDAT_STEPS,
    &IO_RETRIES,
    &FAULTS_INJECTED,
    &SERVE_REQUESTS,
    &SERVE_PREDICTIONS,
    &SERVE_BATCHES,
    &SERVE_SWAPS,
    &SERVE_SWAPS_REJECTED,
    &SCENARIO_CORPORA,
    &SCENARIO_SEGMENTS,
    &SCENARIO_RUNS,
];

/// High-water mark of live pool worker threads.
pub static GAUGE_PAR_WORKERS: Gauge = Gauge::new("par.workers");

/// Every registered gauge, in stable snapshot order.
pub static ALL_GAUGES: &[&Gauge] = &[&GAUGE_PAR_WORKERS];

/// Checkpoint save latency (ns).
pub static HIST_CKPT_SAVE_NS: Histogram = Histogram::new("ckpt.save_ns");
/// Checkpoint restore latency (ns).
pub static HIST_CKPT_RESTORE_NS: Histogram = Histogram::new("ckpt.restore_ns");
/// Per-request `apots-serve` latency (ns), recorded per HTTP request by
/// the connection workers (read → respond → body staged).
pub static HIST_SERVE_LATENCY_NS: Histogram = Histogram::new("serve.latency_ns");

/// Every registered histogram, in stable snapshot order.
pub static ALL_HISTS: &[&Histogram] = &[
    &HIST_CKPT_SAVE_NS,
    &HIST_CKPT_RESTORE_NS,
    &HIST_SERVE_LATENCY_NS,
];

/// Zeroes every registered metric (fresh session).
pub fn reset_all() {
    for c in ALL_COUNTERS {
        c.reset();
    }
    for g in ALL_GAUGES {
        g.reset();
    }
    for h in ALL_HISTS {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = ALL_COUNTERS.iter().map(|c| c.name()).collect();
        names.extend(ALL_GAUGES.iter().map(|g| g.name()));
        names.extend(ALL_HISTS.iter().map(|h| h.name()));
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
