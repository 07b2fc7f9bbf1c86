//! Zero-overhead structured observability for the APOTS workspace.
//!
//! Design contract (DESIGN.md §11):
//!
//! * **Disabled (the default) costs a single relaxed atomic load** per probe
//!   site. No branches beyond the `enabled()` check, no allocation, no locks.
//!   The PR-3/PR-4 determinism and alloc-free guarantees are untouched.
//! * **Enabled telemetry never allocates on the hot path.** Events are `Copy`
//!   records pushed into preallocated per-thread ring buffers
//!   ([`ring::RING_CAP`] slots, reserved up front); metric updates are single
//!   relaxed atomic RMWs. Ring overflow drops events (counted), it never
//!   grows the buffer.
//! * **Draining and flushing happen outside the hot path** (epoch
//!   boundaries, run teardown). Rendering JSONL lines allocates freely there;
//!   the trace file is rewritten through `apots_serde::atomic::write_atomic`
//!   so readers never observe a torn trace.
//! * **Deterministic subset.** Every event and metric carries a `det` flag.
//!   `det: true` data must be bit-identical for any `APOTS_THREADS` and any
//!   wall-clock; [`summary::det_projection`] projects those lines onto
//!   their canonical fields (stripping `t_ns` / `dur_ns` / `thread`) and
//!   [`summary::det_hash`] FNV-1a hashes that projection, giving a
//!   thread-count-invariant golden for traced runs.
//!
//! The trace is JSONL: one strict-JSON object per line, written and parsed
//! with `apots-serde`. Line kinds: `meta`, `span_open`, `span_close`,
//! `value`, `counter`, `gauge`, `hist`, `dropped`.

pub mod metrics;
pub mod ring;
pub mod summary;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use apots_serde::{Json, Map};

/// Master switch. All probe sites gate on a single relaxed load of this.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide monotonic clock base, initialized on first use.
static CLOCK_BASE: OnceLock<Instant> = OnceLock::new();

/// Session origin in nanoseconds relative to [`CLOCK_BASE`]; reset by
/// [`enable`] so every traced session starts near `t_ns = 0`.
static SESSION_START_NS: AtomicU64 = AtomicU64::new(0);

/// Where [`flush`] writes the trace (`None` → render-only, no file).
static SINK: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Rendered JSONL event lines accumulated by [`drain`] across a session.
static PENDING: Mutex<String> = Mutex::new(String::new());

/// Whether tracing is enabled.
///
/// This is the entire cost of a disabled probe site: one relaxed atomic
/// load. Marked `inline(always)` so the check sits directly at the caller.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn base() -> &'static Instant {
    CLOCK_BASE.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the current session was enabled.
#[inline]
pub fn now_ns() -> u64 {
    let abs = base().elapsed().as_nanos() as u64;
    abs.saturating_sub(SESSION_START_NS.load(Ordering::Relaxed))
}

/// Enables tracing, resetting all state to a fresh session.
///
/// Clears every per-thread ring (keeping its preallocated capacity), zeroes
/// every registered metric, empties the pending line buffer, rebases the
/// session clock, and installs `path` as the flush sink. Safe to call
/// multiple times per process; each call starts an independent session.
pub fn enable(path: Option<PathBuf>) {
    // Stop recording while we reset so concurrent probes cannot interleave
    // half into the old session and half into the new one.
    ENABLED.store(false, Ordering::SeqCst);
    ring::reset_all();
    metrics::reset_all();
    PENDING.lock().unwrap().clear();
    *SINK.lock().unwrap() = path;
    SESSION_START_NS.store(base().elapsed().as_nanos() as u64, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables tracing. Buffered events stay drainable/flushable.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Enables tracing from the `APOTS_TRACE` environment variable, if set.
///
/// `APOTS_TRACE=<path>` traces to that file; empty/unset leaves tracing
/// disabled. Returns the sink path when tracing was enabled.
pub fn init_from_env() -> Option<PathBuf> {
    match std::env::var("APOTS_TRACE") {
        Ok(p) if !p.is_empty() => {
            let path = PathBuf::from(p);
            enable(Some(path.clone()));
            Some(path)
        }
        _ => None,
    }
}

/// What a ring-buffer slot records. `Copy` so ring pushes never allocate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A hierarchical span opened.
    SpanOpen,
    /// A span closed; `v0` holds the duration in nanoseconds.
    SpanClose,
    /// A named scalar (or pair) observation.
    Value,
}

/// One telemetry record. 48 bytes, `Copy`, no heap references — names are
/// `&'static str` so recording is allocation-free by construction.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Record kind.
    pub kind: EventKind,
    /// Static event name (dot-separated hierarchy, e.g. `train.epoch`).
    pub name: &'static str,
    /// Whether this record is deterministic (thread-count- and
    /// wall-clock-invariant once canonical fields are projected).
    pub det: bool,
    /// Session-relative monotonic timestamp.
    pub t_ns: u64,
    /// First payload value (duration for `SpanClose`).
    pub v0: f64,
    /// Second payload value (only meaningful when `n_vals == 2`).
    pub v1: f64,
    /// How many of `v0`/`v1` are meaningful (0, 1 or 2).
    pub n_vals: u8,
}

#[inline]
fn record(ev: Event) {
    ring::push(ev);
}

/// Emits a named scalar observation.
#[inline]
pub fn value(name: &'static str, det: bool, v0: f64) {
    if !enabled() {
        return;
    }
    record(Event {
        kind: EventKind::Value,
        name,
        det,
        t_ns: now_ns(),
        v0,
        v1: 0.0,
        n_vals: 1,
    });
}

/// Emits a named pair observation.
#[inline]
pub fn value2(name: &'static str, det: bool, v0: f64, v1: f64) {
    if !enabled() {
        return;
    }
    record(Event {
        kind: EventKind::Value,
        name,
        det,
        t_ns: now_ns(),
        v0,
        v1,
        n_vals: 2,
    });
}

/// RAII span: records `span_open` on creation and `span_close` (with
/// duration) when dropped. Inert when tracing is disabled at open time.
pub struct SpanGuard {
    name: &'static str,
    det: bool,
    open_ns: u64,
    active: bool,
}

/// Opens a hierarchical span. Nesting is by construction: guards close in
/// reverse drop order, which the trace-format tests verify.
#[inline]
pub fn span(name: &'static str, det: bool) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            det,
            open_ns: 0,
            active: false,
        };
    }
    let t = now_ns();
    record(Event {
        kind: EventKind::SpanOpen,
        name,
        det,
        t_ns: t,
        v0: 0.0,
        v1: 0.0,
        n_vals: 0,
    });
    SpanGuard {
        name,
        det,
        open_ns: t,
        active: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active || !enabled() {
            return;
        }
        let t = now_ns();
        record(Event {
            kind: EventKind::SpanClose,
            name: self.name,
            det: self.det,
            t_ns: t,
            v0: t.saturating_sub(self.open_ns) as f64,
            v1: 0.0,
            n_vals: 1,
        });
    }
}

/// JSON-sanitizes a float: non-finite values (divergence-sentinel traces
/// can carry NaN losses) become `null` so the strict writer never panics.
fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

fn event_line(thread: usize, ev: &Event) -> String {
    let mut m = Map::new();
    let kind = match ev.kind {
        EventKind::SpanOpen => "span_open",
        EventKind::SpanClose => "span_close",
        EventKind::Value => "value",
    };
    m.insert("kind".into(), Json::Str(kind.into()));
    m.insert("name".into(), Json::Str(ev.name.into()));
    m.insert("det".into(), Json::Bool(ev.det));
    m.insert("thread".into(), Json::Num(thread as f64));
    m.insert("t_ns".into(), Json::Num(ev.t_ns as f64));
    match ev.kind {
        EventKind::SpanOpen => {}
        EventKind::SpanClose => {
            m.insert("dur_ns".into(), num(ev.v0));
        }
        EventKind::Value => {
            m.insert("v0".into(), num(ev.v0));
            if ev.n_vals >= 2 {
                m.insert("v1".into(), num(ev.v1));
            }
        }
    }
    Json::Obj(m).to_string()
}

/// Drains every per-thread ring into the pending line buffer.
///
/// Call this outside the hot path (epoch boundaries, teardown): rendering
/// allocates. Rings keep their preallocated capacity.
pub fn drain() {
    let drained = ring::drain_all();
    let mut pending = PENDING.lock().unwrap();
    for (thread, events) in &drained {
        for ev in events {
            pending.push_str(&event_line(*thread, ev));
            pending.push('\n');
        }
    }
}

fn snapshot_lines(out: &mut String) {
    for metric in metrics::REGISTRY {
        let mut m = Map::new();
        m.insert("kind".into(), Json::Str(metric.kind().into()));
        m.insert("name".into(), Json::Str(metric.name().into()));
        m.insert("det".into(), Json::Bool(metric.det()));
        for (field, v) in metric.fields().iter() {
            m.insert(field.into(), v.clone());
        }
        out.push_str(&Json::Obj(m).to_string());
        out.push('\n');
    }
    let dropped = ring::dropped_total();
    if dropped > 0 {
        let mut m = Map::new();
        m.insert("kind".into(), Json::Str("dropped".into()));
        m.insert("det".into(), Json::Bool(false));
        m.insert("count".into(), Json::Num(dropped as f64));
        out.push_str(&Json::Obj(m).to_string());
        out.push('\n');
    }
}

/// Renders the full trace document: meta header, every drained event line,
/// then a snapshot of all registered counters/gauges/histograms.
///
/// Does **not** drain rings first; callers wanting everything use
/// [`drain_and_flush`] or call [`drain`] themselves.
pub fn render() -> String {
    let mut out = String::new();
    let mut meta = Map::new();
    meta.insert("kind".into(), Json::Str("meta".into()));
    meta.insert("schema".into(), Json::Str("apots-trace".into()));
    meta.insert("version".into(), Json::Num(1.0));
    out.push_str(&Json::Obj(meta).to_string());
    out.push('\n');
    out.push_str(&PENDING.lock().unwrap());
    snapshot_lines(&mut out);
    out
}

/// Atomically (re)writes the full trace document to the configured sink.
///
/// Returns the sink path written, or `None` when no sink is configured.
/// Safe to call repeatedly and from any thread: each flush rewrites the
/// whole file through the atomic writer while holding the sink lock, so
/// two flushes never share the writer's temp file and the on-disk trace
/// is always complete and well-formed.
pub fn flush() -> std::io::Result<Option<PathBuf>> {
    let sink = SINK.lock().unwrap();
    match sink.as_ref() {
        None => Ok(None),
        Some(path) => {
            write_trace(path, &render())?;
            Ok(Some(path.clone()))
        }
    }
}

fn write_trace(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    apots_serde::atomic::write_atomic(path, text)
}

/// Drains all rings then flushes the sink. The canonical epoch-boundary and
/// teardown hook; a no-op (beyond the enabled check) when tracing is off.
pub fn drain_and_flush() {
    if !enabled() && SINK.lock().unwrap().is_none() {
        return;
    }
    drain();
    if let Err(e) = flush() {
        eprintln!("apots-obs: trace flush failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Metric;

    // Obs state is process-global; serialize tests that toggle or read it.
    static LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn sess() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = sess();
        enable(None);
        disable();
        value("x", true, 1.0);
        let _s = span("s", true);
        drop(_s);
        drain();
        let text = render();
        assert!(!text.contains("\"name\":\"x\""), "{text}");
        assert!(!text.contains("span_open"), "{text}");
    }

    #[test]
    fn value_and_span_round_trip_as_strict_json_lines() {
        let _g = sess();
        enable(None);
        {
            let _s = span("train.epoch", true);
            value("epoch.mse", true, 0.25);
            value2("par.region", false, 8.0, 3.0);
        }
        disable();
        drain();
        let text = render();
        let mut kinds = Vec::new();
        for line in text.lines() {
            let j = Json::parse(line).expect("every trace line is strict JSON");
            kinds.push(j.get("kind").unwrap().as_str().unwrap().to_string());
        }
        assert_eq!(kinds[0], "meta");
        assert!(kinds.iter().any(|k| k == "span_open"));
        assert!(kinds.iter().any(|k| k == "span_close"));
        assert!(kinds.iter().any(|k| k == "value"));
        assert!(kinds.iter().any(|k| k == "counter"));
        // span_close carries a duration
        let close = text
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .find(|j| j.get("kind").and_then(|k| k.as_str()) == Some("span_close"))
            .unwrap();
        assert!(close.get("dur_ns").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        let _g = sess();
        enable(None);
        value("bad", true, f64::NAN);
        value("worse", true, f64::INFINITY);
        disable();
        drain();
        let text = render(); // must not panic in the strict writer
        let nulls = text
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .filter(|j| j.get("v0") == Some(&Json::Null))
            .count();
        assert_eq!(nulls, 2, "{text}");
    }

    #[test]
    fn enable_resets_previous_session() {
        let _g = sess();
        enable(None);
        value("first", true, 1.0);
        metrics::KERNEL_MATMUL.add(5);
        drain();
        enable(None);
        value("second", true, 2.0);
        disable();
        drain();
        let text = render();
        assert!(!text.contains("\"name\":\"first\""), "{text}");
        assert!(text.contains("\"name\":\"second\""), "{text}");
        assert_eq!(metrics::KERNEL_MATMUL.get(), 0);
    }

    #[test]
    fn flush_writes_parseable_trace_atomically() {
        let _g = sess();
        let dir = std::env::temp_dir().join(format!("apots_obs_test_{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        enable(Some(path.clone()));
        value("epoch.mse", true, 0.5);
        disable();
        drain_and_flush();
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            Json::parse(line).expect("flushed lines parse");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flushes from several threads at once each write the whole trace:
    /// none fails and the file they leave parses line by line.
    #[test]
    fn concurrent_flushes_never_fail_or_tear() {
        let _g = sess();
        let dir = std::env::temp_dir().join(format!("apots_obs_flush_{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        enable(Some(path.clone()));
        value("epoch.mse", true, 0.5);
        metrics::KERNEL_MATMUL.add(3);
        disable();
        drain();
        let start = std::sync::Barrier::new(4);
        let failures: usize = std::thread::scope(|s| {
            let flushers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..200).filter(|_| flush().is_err()).count()
                    })
                })
                .collect();
            flushers.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(failures, 0, "{failures} of 800 concurrent flushes failed");
        assert_eq!(text, render());
        for line in text.lines() {
            Json::parse(line).expect("flushed lines parse");
        }
    }

    /// Bumps every registered metric once by walking the registry: each
    /// must reach the trace, the summary at `summary[section][key]` and,
    /// for `serve.*`, the `/metrics` entries.
    #[test]
    fn every_registered_metric_reaches_every_report() {
        let _g = sess();
        enable(None);
        for m in metrics::REGISTRY {
            match *m {
                Metric::Counter(c) => c.bump(),
                Metric::Gauge(g) => g.set(1),
                Metric::Hist(h) => h.record(1),
            }
        }
        disable();
        let summary = summary::summarize(&render()).expect("summarize");
        let served = metrics::section("serve");
        // A histogram's reading is its sample count.
        let one = |m: &Metric, v: &Json| match m {
            Metric::Hist(_) => v.get("count").and_then(Json::as_f64),
            _ => v.as_f64(),
        };
        let mut n_served = 0;
        for m in metrics::REGISTRY {
            let name = m.name();
            let (section, key) = name.split_once('.').expect("metric names are section.key");
            assert!(
                !summary::TOP_LEVEL_KEYS.contains(&section),
                "{name}: section collides with a top-level summary key"
            );
            let got = summary.get(section).and_then(|s| s.get(key));
            assert_eq!(
                got.and_then(|v| one(m, v)),
                Some(1.0),
                "summary[{section}][{key}]"
            );
            if section == "serve" {
                n_served += 1;
                let got = served.get(key);
                assert_eq!(got.and_then(|v| one(m, v)), Some(1.0), "/metrics {key}");
            }
        }
        assert_eq!(served.len(), n_served);
    }
}
