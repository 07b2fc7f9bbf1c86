//! **Trace-format contract** (DESIGN.md §11): every line a traced run
//! emits is strict JSON with a known `kind`; span open/close events obey
//! stack discipline per thread; and the deterministic projection of a
//! seeded 2-epoch training trace equals a committed golden that does not
//! depend on `APOTS_THREADS`.
//!
//! The golden, `golden/trace_det.jsonl`, was captured at
//! `APOTS_THREADS=1` and re-verified at 4 threads:
//! [`apots_obs::summary::det_projection`] strips `t_ns` / `dur_ns` /
//! `thread` and keeps only `det: true` records, all of which are emitted
//! from the driving thread in program order (or counted at kernel
//! dispatch entry, before any work is split), so it pins the traced
//! *semantics* — event names, order, loss values, kernel dispatch counts —
//! not the schedule. Counters at value 0 are left out, so a counter the
//! run never bumps can be registered or deleted without moving it. A
//! mismatch names the first differing line. If it changes after an
//! intentional numerics or instrumentation change, recapture the file and
//! its hash [`GOLDEN_DET_HASH`] together and note the break in DESIGN.md;
//! never let it drift silently.

use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::predictor::build_predictor;
use apots::trainer::train_apots;
use apots_check::{seeded, Rng, SeededRng};
use apots_serde::atomic::{fnv1a_64, Fnv1a};
use apots_serde::Json;
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

/// Obs state is process-global; every test that enables tracing holds this.
static SESSION: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn session() -> std::sync::MutexGuard<'static, ()> {
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

/// `det_projection` of the 2-epoch Hybrid adversarial trace below,
/// captured at `APOTS_THREADS=1` (seed 2024, predictor seed 42, 128
/// samples).
const GOLDEN_DET_PROJECTION: &str = include_str!("golden/trace_det.jsonl");

/// `det_hash` of that trace: the FNV-1a of [`GOLDEN_DET_PROJECTION`].
///
/// Recaptured when the robustness harness registered the
/// `attack.runs` / `attack.queries` / `rdat.steps` counters (they appear
/// in every snapshot section at value 0; DESIGN.md §12 notes the break).
/// Was `0xe55d5320af486023` before the registry grew.
///
/// Recaptured again when the fault plane registered `io.retry` /
/// `faults.injected` (DESIGN.md §13 notes the break). Was
/// `0x4521df7a2adfaa71` before.
///
/// Recaptured again when the serving plane registered the five
/// `serve.*` counters (DESIGN.md §14 notes the break). Was
/// `0xc3f9ed818a3a6fa0` before.
///
/// Recaptured again when the inference fast lanes registered the
/// `kernel.sgemm_fast` / `kernel.qmatmul` / `kernel.quantize` dispatch
/// counters (DESIGN.md §15 notes the break — they are det-flagged
/// precisely so a training run that ever dispatched a fast kernel would
/// move this hash). Was `0x70c6040918d1948a` before.
///
/// Recaptured again when the scenario engine registered the three
/// `scenario.*` counters (DESIGN.md §16 notes the break). Was
/// `0xd3e638ed85dd1c83` before.
///
/// Recaptured once more when `det_hash` stopped hashing counters at
/// value 0 (DESIGN.md §11), so registering or deleting a counter the
/// run never bumps no longer moves it; the `kernel.sgemm_fast` counter
/// left the registry in the same change. Was `0x79dbef05988bc57f`
/// before.
const GOLDEN_DET_HASH: u64 = 0x8518997c704186a1;

fn dataset() -> TrafficDataset {
    let cal = Calendar::new(8, 6, vec![]);
    TrafficDataset::new(
        Corridor::generate_with_calendar(SimConfig::default(), cal),
        DataConfig::default(),
    )
}

fn tiny_config() -> TrainConfig {
    let mut c = TrainConfig::fast_adversarial(FeatureMask::BOTH);
    c.epochs = 2;
    c.adv_warmup_epochs = 0;
    c.max_train_samples = Some(128);
    c.batch_size = 32;
    c.seed = 2024;
    c
}

/// The serial-path trace, computed once: three tests inspect the same
/// seeded run, and a 2-epoch adversarial train is the dominant cost of
/// this binary under the debug profile. Callers must hold [`session`].
fn trace_t1() -> &'static str {
    static TRACE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TRACE.get_or_init(|| traced_run(1))
}

/// Runs the seeded scenario traced at `threads` and returns the rendered
/// trace text.
fn traced_run(threads: usize) -> String {
    apots_par::set_threads(threads);
    apots_obs::enable(None);
    let ds = dataset();
    let cfg = tiny_config();
    let mut p = build_predictor(PredictorKind::Hybrid, HyperPreset::Fast, &ds, 42);
    let _report = train_apots(p.as_mut(), &ds, &cfg);
    apots_obs::disable();
    apots_obs::drain();
    let text = apots_obs::render();
    apots_par::reset_threads();
    text
}

#[test]
fn every_trace_line_is_strict_json_with_a_known_kind() {
    let _g = session();
    let text = trace_t1();
    const KNOWN: [&str; 8] = [
        "meta",
        "span_open",
        "span_close",
        "value",
        "counter",
        "gauge",
        "hist",
        "dropped",
    ];
    let mut seen = std::collections::BTreeSet::new();
    for line in text.lines() {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("trace line without kind: {line}"))
            .to_string();
        assert!(KNOWN.contains(&kind.as_str()), "unknown kind {kind:?}");
        seen.insert(kind);
    }
    // A real training run exercises every kind that can appear without
    // ring overflow ("dropped" only shows up when events are lost).
    for want in [
        "meta",
        "span_open",
        "span_close",
        "value",
        "counter",
        "gauge",
        "hist",
    ] {
        assert!(seen.contains(want), "trace never emitted kind {want:?}");
    }
}

/// Replays `text` and checks span stack discipline per thread: every
/// `span_close` matches the most recent unclosed `span_open` of the same
/// thread, nothing stays open, and per-thread timestamps never go back.
fn assert_well_nested(text: &str) -> usize {
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut last_t: std::collections::BTreeMap<u64, f64> = Default::default();
    let mut spans = 0usize;
    for line in text.lines() {
        let j = Json::parse(line).expect("trace line parses");
        let kind = j.get("kind").and_then(Json::as_str).unwrap();
        if !matches!(kind, "span_open" | "span_close" | "value") {
            continue;
        }
        let thread = j.get("thread").and_then(Json::as_f64).unwrap() as u64;
        let t = j.get("t_ns").and_then(Json::as_f64).unwrap();
        let prev = last_t.entry(thread).or_insert(0.0);
        assert!(
            t >= *prev,
            "thread {thread} time went backwards: {t} < {prev}"
        );
        *prev = t;
        let name = j.get("name").and_then(Json::as_str).unwrap().to_string();
        match kind {
            "span_open" => stacks.entry(thread).or_default().push(name),
            "span_close" => {
                spans += 1;
                let top = stacks
                    .entry(thread)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("close of {name:?} with empty stack"));
                assert_eq!(top, name, "span close out of order on thread {thread}");
                assert!(
                    j.get("dur_ns").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0,
                    "span_close without a duration: {line}"
                );
            }
            _ => {}
        }
    }
    for (thread, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "thread {thread} left spans open: {stack:?}"
        );
    }
    spans
}

#[test]
fn training_trace_spans_are_well_nested() {
    let _g = session();
    let text = trace_t1();
    let spans = assert_well_nested(text);
    // 1 run span + 2 epoch spans at minimum.
    assert!(spans >= 3, "expected >=3 closed spans, saw {spans}");
}

/// Property: *any* program-shaped pattern of nested RAII spans and values
/// renders to a well-nested trace. The generator drives a recursive
/// random tree of guards from a seed; the checker replays the rendered
/// text. Guards close in reverse drop order by construction — this pins
/// that the *serialized* trace preserves it through rings and draining.
#[test]
fn random_span_trees_render_well_nested() {
    let _g = session();
    const NAMES: [&str; 4] = ["a", "b", "c", "d"];

    fn tree(rng: &mut SeededRng, depth: usize, opened: &mut usize) {
        if *opened > 200 {
            return;
        }
        let children = (rng.next_u64() % 3) as usize;
        for _ in 0..children {
            let name = NAMES[(rng.next_u64() as usize) % NAMES.len()];
            *opened += 1;
            let _s = apots_obs::span(name, true);
            if rng.next_u64().is_multiple_of(2) {
                apots_obs::value("leaf", true, depth as f64);
            }
            if depth < 5 {
                tree(rng, depth + 1, opened);
            }
        }
    }

    apots_check::check(
        "span_trees_well_nested",
        |rng: &mut SeededRng| rng.next_u64(),
        |&seed: &u64| {
            apots_obs::enable(None);
            let mut rng = seeded(seed);
            let mut opened = 0usize;
            tree(&mut rng, 0, &mut opened);
            apots_obs::disable();
            apots_obs::drain();
            let text = apots_obs::render();
            let closed = assert_well_nested(&text);
            if closed != opened {
                return Err(format!("opened {opened} spans but trace closed {closed}"));
            }
            Ok(())
        },
    );
}

/// Panics unless `projection` (of the run at `threads`) is the committed
/// golden, naming the first line where they part.
fn assert_matches_golden_projection(projection: &str, threads: usize) {
    let got: Vec<&str> = projection.lines().collect();
    let want: Vec<&str> = GOLDEN_DET_PROJECTION.lines().collect();
    if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        panic!(
            "the det projection at APOTS_THREADS={threads} drifted from \
             golden/trace_det.jsonl at line {}:\n  run:    {}\n  golden: {}\n\
             (see the module docs before updating)",
            i + 1,
            got.get(i).unwrap_or(&"<end of projection>"),
            want.get(i).unwrap_or(&"<end of golden>"),
        );
    }
    assert_eq!(projection, GOLDEN_DET_PROJECTION, "APOTS_THREADS={threads}");
}

#[test]
fn det_hash_is_thread_count_invariant_and_matches_golden() {
    let _g = session();
    assert_eq!(
        fnv1a_64(GOLDEN_DET_PROJECTION.as_bytes()),
        GOLDEN_DET_HASH,
        "GOLDEN_DET_HASH must be the FNV-1a of golden/trace_det.jsonl"
    );
    let p1 = apots_obs::summary::det_projection(trace_t1()).expect("det projection at T=1");
    assert_matches_golden_projection(&p1, 1);
    let p4 = apots_obs::summary::det_projection(&traced_run(4)).expect("det projection at T=4");
    assert_matches_golden_projection(&p4, 4);
    assert_eq!(
        apots_obs::summary::det_hash(trace_t1()),
        Ok(GOLDEN_DET_HASH)
    );
}

/// Trains the seeded scenario and returns `(mse_bits, param_hash)`.
/// Tracing state must be set up by the caller.
fn numerics() -> (u32, u64) {
    let ds = dataset();
    let cfg = tiny_config();
    let mut p = build_predictor(PredictorKind::Hybrid, HyperPreset::Fast, &ds, 42);
    let report = train_apots(p.as_mut(), &ds, &cfg);
    let mse_bits = report.final_mse().expect("no MSE").to_bits();
    let mut param_hash = Fnv1a::new();
    for pr in p.params_mut() {
        for v in pr.value.data() {
            param_hash.write(&v.to_le_bytes());
        }
    }
    (mse_bits, param_hash.finish())
}

/// Tracing is observation only: a traced run (events, counters, a JSONL
/// sink flushed every epoch) produces bit-identical parameters and MSE to
/// the untraced run at the same seed.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let _g = session();
    apots_par::set_threads(1);
    apots_obs::disable();
    let untraced = numerics();

    let path = std::env::temp_dir().join(format!("apots-trace-bitid-{}.jsonl", std::process::id()));
    apots_obs::enable(Some(path.clone()));
    let traced = numerics();
    apots_obs::disable();
    apots_obs::drain_and_flush();
    assert!(path.exists(), "traced run must write its sink");
    std::fs::remove_file(&path).ok();
    apots_par::reset_threads();

    assert_eq!(
        (
            format!("0x{:08x}", untraced.0),
            format!("0x{:016x}", untraced.1)
        ),
        (
            format!("0x{:08x}", traced.0),
            format!("0x{:016x}", traced.1)
        ),
        "tracing changed training numerics"
    );
}

/// The robustness harness extends the trace vocabulary with `rdat.*` /
/// `attack.*` *names* but no new `kind`s: an RDAT-defended traced run
/// must stay inside the same 8-kind contract, bump the `rdat.steps`
/// counter, and summarize cleanly (including the `rdat` section).
#[test]
fn rdat_trace_stays_inside_the_kind_contract() {
    let _g = session();
    apots_par::set_threads(1);
    apots_obs::enable(None);
    let ds = dataset();
    let mut cfg = tiny_config();
    cfg.adversarial = false;
    cfg.epochs = 1;
    let cfg = cfg.with_rdat(apots::config::RdatConfig::default());
    let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &ds, 42);
    let _ = apots::trainer::train_with_options(
        p.as_mut(),
        &ds,
        &cfg,
        &mut apots::runtime::TrainOptions::default(),
    )
    .expect("RDAT run");
    apots_obs::disable();
    apots_obs::drain();
    let text = apots_obs::render();
    apots_par::reset_threads();

    const KNOWN: [&str; 8] = [
        "meta",
        "span_open",
        "span_close",
        "value",
        "counter",
        "gauge",
        "hist",
        "dropped",
    ];
    let mut rdat_steps = 0.0;
    let mut saw_gap = false;
    for line in text.lines() {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        let kind = j.get("kind").and_then(Json::as_str).unwrap();
        assert!(KNOWN.contains(&kind), "unknown kind {kind:?}");
        let name = j.get("name").and_then(Json::as_str).unwrap_or("");
        if kind == "counter" && name == "rdat.steps" {
            rdat_steps = j.get("value").and_then(Json::as_f64).unwrap();
        }
        if kind == "value" && name == "rdat.gap" {
            saw_gap = true;
        }
    }
    assert!(rdat_steps > 0.0, "RDAT run never bumped rdat.steps");
    assert!(saw_gap, "RDAT run never emitted rdat.gap");
    let s = apots_obs::summary::summarize(&text).expect("summarize RDAT trace");
    let rdat = s.get("rdat").and_then(Json::as_object).unwrap();
    assert_eq!(rdat.get("steps").and_then(Json::as_f64), Some(rdat_steps));
}

#[test]
fn summary_of_traced_run_reports_epochs_and_kernels() {
    let _g = session();
    let s = apots_obs::summary::summarize(trace_t1()).expect("summarize");
    let epochs = s.get("epochs").and_then(Json::as_array).unwrap();
    assert_eq!(epochs.len(), 2, "2-epoch run must summarize 2 epochs");
    for e in epochs {
        assert!(e.get("mse").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(e.get("grad_norm").and_then(Json::as_f64).is_some());
    }
    let kernel = s.get("kernel").and_then(Json::as_object).unwrap();
    let total: f64 = kernel.iter().filter_map(|(_, v)| v.as_f64()).sum();
    assert!(total > 0.0, "training must dispatch kernels");
    // The summary itself is strict JSON end to end.
    let reparsed = Json::parse(&s.to_string()).expect("summary round-trips");
    assert_eq!(
        reparsed.get("schema").and_then(Json::as_str),
        Some("apots-metrics-summary")
    );
}
