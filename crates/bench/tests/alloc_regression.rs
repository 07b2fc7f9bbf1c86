//! **Allocation-regression gate** — the enforcement side of the
//! workspace-arena contract (DESIGN.md §10): after the warmup epoch has
//! populated the per-thread buffer pool, the kernel hot path (every
//! forward → loss → backward segment the trainer brackets with
//! `apots::hotpath::guard()`) performs **zero heap allocations** on the
//! serial path, for all four predictor kinds and for the adversarial
//! loop. The same counted scope pins that fingerprinting a served
//! checkpoint allocates nothing (DESIGN.md §14).
//!
//! Mechanics: this test binary installs [`apots_bench::alloc_count`]'s
//! counting global allocator and its hot-path probe, trains each
//! predictor for four epochs at `APOTS_THREADS=1` (pinned via
//! `set_threads`, so the surrounding environment cannot widen the pool),
//! snapshots the counters at the first batch of every epoch, and asserts
//! the deltas for epochs ≥ 2 (0-based) are exactly zero.
//!
//! The first two epochs are warmup and may allocate freely: epoch 0
//! fills the arena with the hot path's working set, and epoch 1 absorbs
//! the epoch-boundary snapshot's first clone of the lazily-initialized
//! Adam moments (the snapshot checks its clones out of the same pool, so
//! the first time it runs with live moments it drains buffers the hot
//! path then has to replace — once). From epoch 2 on the pool holds the
//! complete working set and the hot path must be silent. The
//! contract deliberately excludes encode, batch index construction,
//! `params_mut` collection, gradient clipping, optimizer stepping and
//! checkpointing — those run outside the hot-path guards (and the Adam
//! serial fast path keeps the optimizer allocation-free in practice
//! anyway, but it is not part of this gate).

use std::cell::RefCell;

use apots::checkpoint::Checkpoint;
use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::predictor::build_predictor;
use apots::runtime::{BatchCtx, TrainOptions};
use apots::trainer::train_with_options;
use apots_bench::alloc_count;
use apots_serve::ModelSnapshot;
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

#[global_allocator]
static GLOBAL: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

fn dataset() -> TrafficDataset {
    let cal = Calendar::new(8, 6, vec![]);
    TrafficDataset::new(
        Corridor::generate_with_calendar(SimConfig::default(), cal),
        DataConfig::default(),
    )
}

/// Per-epoch `(allocs, bytes)` counted inside hot-path segments while
/// training `kind` for `epochs` epochs.
fn hot_path_allocs_per_epoch(
    data: &TrafficDataset,
    kind: PredictorKind,
    adversarial: bool,
    epochs: usize,
) -> Vec<(u64, u64)> {
    let mut cfg = if adversarial {
        TrainConfig::fast_adversarial(FeatureMask::BOTH)
    } else {
        TrainConfig::fast_plain(FeatureMask::BOTH)
    };
    cfg.epochs = epochs;
    cfg.adv_warmup_epochs = 0;
    cfg.max_train_samples = Some(64);
    cfg.batch_size = 32;
    let mut p = build_predictor(kind, HyperPreset::Fast, data, 1);

    let marks: RefCell<Vec<(u64, u64)>> = RefCell::new(Vec::new());
    alloc_count::reset();
    alloc_count::arm();
    {
        let mut opts = TrainOptions {
            // The per-batch hook fires before any hot-path work in the
            // batch, so a snapshot at batch 0 is an epoch-boundary mark.
            poison_hook: Some(Box::new(|ctx: BatchCtx| {
                if ctx.batch == 0 && ctx.attempt == 0 {
                    marks.borrow_mut().push(alloc_count::counters());
                }
                false
            })),
            ..TrainOptions::default()
        };
        train_with_options(p.as_mut(), data, &cfg, &mut opts).expect("training failed");
    }
    alloc_count::disarm();
    marks.borrow_mut().push(alloc_count::counters());

    let marks = marks.into_inner();
    assert_eq!(marks.len(), epochs + 1, "expected one mark per epoch + end");
    marks
        .windows(2)
        .map(|w| (w[1].0 - w[0].0, w[1].1 - w[0].1))
        .collect()
}

/// The probe can be installed once per process, and both tests below
/// share the process-global counters, so they serialize on this lock and
/// install through this helper.
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn ensure_probe() {
    static INSTALLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    assert!(
        *INSTALLED.get_or_init(alloc_count::install_probe),
        "another hot-path probe is already installed in this process"
    );
}

/// The baseline gate: one per-process global allocator + probe install, so
/// every scenario runs under the same instrumented binary, serially.
#[test]
fn steady_state_epochs_allocate_nothing_on_the_hot_path() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Pin the serial path regardless of APOTS_THREADS: the zero-alloc
    // contract applies to per-thread arenas without pool scheduling.
    apots_par::set_threads(1);
    ensure_probe();

    let data = dataset();
    let mut failures = Vec::new();

    for kind in PredictorKind::all() {
        let per_epoch = hot_path_allocs_per_epoch(&data, kind, false, 4);
        assert!(
            per_epoch[0].0 > 0,
            "{kind:?} plain: warmup epoch should allocate while the arena fills \
             (counted {:?}) — is the probe wired up?",
            per_epoch[0]
        );
        for (e, &(allocs, bytes)) in per_epoch.iter().enumerate().skip(2) {
            if allocs != 0 {
                failures.push(format!(
                    "{kind:?} plain epoch {e}: {allocs} hot-path allocations ({bytes} bytes)"
                ));
            }
        }
    }

    // The adversarial loop exercises the discriminator + generator-loss
    // segments too; the hybrid predictor covers conv + LSTM + dense.
    let per_epoch = hot_path_allocs_per_epoch(&data, PredictorKind::Hybrid, true, 4);
    assert!(per_epoch[0].0 > 0, "adversarial warmup should allocate");
    for (e, &(allocs, bytes)) in per_epoch.iter().enumerate().skip(2) {
        if allocs != 0 {
            failures.push(format!(
                "Hybrid adversarial epoch {e}: {allocs} hot-path allocations ({bytes} bytes)"
            ));
        }
    }

    apots_par::reset_threads();
    assert!(
        failures.is_empty(),
        "steady-state hot path must be allocation-free:\n  {}",
        failures.join("\n  ")
    );
}

/// Fault-plane variant of the gate (DESIGN.md §13): with the injectable
/// filesystem shim *installed but quiescent* (every fault probability
/// zero), the steady-state hot path must still allocate nothing and the
/// trained numerics must be bit-identical to the disarmed run. The shim
/// dispatch is one relaxed atomic load plus a mutex acquire confined to
/// filesystem operations, which only occur at epoch boundaries — if
/// either ever leaks into a hot-path guard window, this trips.
#[test]
fn quiescent_fault_shim_keeps_the_hot_path_silent_and_numerics_identical() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    apots_par::set_threads(1);
    ensure_probe();

    let data = dataset();

    // Bit patterns of a short training run, disarmed.
    let train_bits = |tag: &str| -> Vec<u32> {
        let mut cfg = TrainConfig::fast_plain(FeatureMask::BOTH);
        cfg.epochs = 3;
        cfg.max_train_samples = Some(64);
        cfg.batch_size = 32;
        let dir =
            std::env::temp_dir().join(format!("apots-alloc-faults-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut p = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &data, 1);
        // Checkpoint every epoch so real fs traffic flows through the
        // (quiescent) shim while the hot path is measured.
        let mut opts = TrainOptions::checkpointed(&dir, 1, false);
        train_with_options(p.as_mut(), &data, &cfg, &mut opts).expect("training failed");
        let eval = apots::eval::evaluate(p.as_mut(), &data, cfg.mask, data.test_samples());
        let _ = std::fs::remove_dir_all(&dir);
        eval.predictions.iter().map(|v| v.to_bits()).collect()
    };

    let baseline = train_bits("off");

    apots_faults::arm(apots_faults::FaultSpec::quiescent(0xA110C));
    // No warmup-allocates assertion here: the disarmed baseline above
    // (and any earlier test in this binary) already filled the arena
    // with Fc's working set, so even epoch 0 can legitimately be silent.
    let per_epoch = hot_path_allocs_per_epoch(&data, PredictorKind::Fc, false, 4);
    let mut failures = Vec::new();
    for (e, &(allocs, bytes)) in per_epoch.iter().enumerate().skip(2) {
        if allocs != 0 {
            failures.push(format!(
                "Fc plain (quiescent shim) epoch {e}: {allocs} hot-path \
                 allocations ({bytes} bytes)"
            ));
        }
    }
    let armed = train_bits("on");
    apots_faults::disarm();

    apots_par::reset_threads();
    assert!(
        failures.is_empty(),
        "quiescent fault shim must not move allocations into the hot path:\n  {}",
        failures.join("\n  ")
    );
    assert_eq!(
        armed, baseline,
        "a quiescent fault shim must not perturb training numerics"
    );
}

/// Serving boot (DESIGN.md §14): fingerprinting a checkpoint is one pass
/// over its parameter bits, with no text render and no JSON tree. The
/// Paper-preset H checkpoint (3.8M parameters) would render to ~80 MB of
/// JSON, so any render inside the counted scope shows up at once.
#[test]
fn fingerprinting_a_paper_checkpoint_allocates_nothing() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ensure_probe();

    let data = dataset();
    let mut p = build_predictor(PredictorKind::Hybrid, HyperPreset::Paper, &data, 1);
    let ck = Checkpoint::capture(p.as_mut());
    assert!(
        ck.state.scalar_count() > 3_000_000,
        "not the Paper-preset H"
    );

    alloc_count::reset();
    alloc_count::arm();
    let snap = {
        let _scope = apots::hotpath::guard();
        ModelSnapshot::new(ck, 1)
    };
    alloc_count::disarm();
    let (allocs, bytes) = alloc_count::counters();
    assert!(snap.is_ok(), "a finite checkpoint must fingerprint");
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "fingerprinting must not allocate ({allocs} allocations, {bytes} bytes)"
    );
}

/// Tracing variant of the gate (DESIGN.md §11): with `apots-obs` armed
/// and writing a JSONL sink, the steady-state hot path must *still*
/// allocate nothing. Telemetry records are `Copy` pushes into rings that
/// were preallocated before steady state (the main thread's ring is
/// created by the `train.run` span, outside any hot-path guard, during
/// warmup), metric updates are plain atomics, and draining/flushing —
/// which allocates freely — only runs at epoch boundaries outside the
/// guard windows. A regression in any of those moves allocations inside
/// the guards and trips this test exactly like an arena regression would.
#[test]
fn steady_state_epochs_allocate_nothing_while_traced() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    apots_par::set_threads(1);
    ensure_probe();

    let trace_path =
        std::env::temp_dir().join(format!("apots-alloc-traced-{}.jsonl", std::process::id()));
    apots_obs::enable(Some(trace_path.clone()));

    let data = dataset();
    let mut failures = Vec::new();
    // Hybrid adversarial covers conv + LSTM + dense plus the
    // discriminator segments — the widest traced surface.
    let per_epoch = hot_path_allocs_per_epoch(&data, PredictorKind::Hybrid, true, 4);
    assert!(per_epoch[0].0 > 0, "traced warmup should allocate");
    for (e, &(allocs, bytes)) in per_epoch.iter().enumerate().skip(2) {
        if allocs != 0 {
            failures.push(format!(
                "Hybrid adversarial (traced) epoch {e}: {allocs} hot-path \
                 allocations ({bytes} bytes)"
            ));
        }
    }

    apots_obs::disable();
    apots_obs::drain_and_flush();
    // The sink must hold a complete, parseable trace of the run.
    let text = std::fs::read_to_string(&trace_path).expect("trace sink written");
    assert!(text.lines().count() > 1, "trace is non-trivial");
    for line in text.lines() {
        apots_serde::Json::parse(line).expect("traced run emits strict JSONL");
    }
    std::fs::remove_file(&trace_path).ok();

    apots_par::reset_threads();
    assert!(
        failures.is_empty(),
        "steady-state hot path must stay allocation-free under tracing:\n  {}",
        failures.join("\n  ")
    );
}
