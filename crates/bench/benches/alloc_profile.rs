//! **Allocation profile** — per-epoch heap traffic inside the kernel hot
//! path, measured with the [`apots_bench::alloc_count`] counting
//! allocator scoped to the trainer's `apots::hotpath` segments.
//!
//! Unlike the timing benches this target measures *allocations*, so it
//! bypasses the Criterion-shaped harness and writes its own
//! `BENCH_alloc_profile.json`: one entry per training run (each predictor
//! kind plain, plus the hybrid adversarial loop) with `epochs[k] =
//! {allocs, bytes}` and the steady-state totals (epochs ≥ 2: epoch 0
//! fills the arena, epoch 1 absorbs the epoch-boundary snapshot's first
//! clone of the lazily-initialized Adam moments — see the
//! `alloc_regression` test for the full accounting of the warmup window).
//!
//! The workspace-arena contract (DESIGN.md §10) says steady-state epochs
//! perform **zero** hot-path allocations at `APOTS_THREADS=1`; the
//! `alloc_regression` test enforces that, this bench records the numbers
//! (including the warmup epoch's arena-filling traffic, which is the
//! interesting contrast).
//!
//! Invocation follows the other bench targets: `cargo bench -p
//! apots-bench --bench alloc_profile` writes the JSON;
//! `--test` (smoke mode) runs the same profile but only writes when
//! `APOTS_BENCH_SMOKE_EMIT=1`.

use std::cell::RefCell;

use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::predictor::build_predictor;
use apots::runtime::{BatchCtx, TrainOptions};
use apots::trainer::train_with_options;
use apots_bench::alloc_count;
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

#[global_allocator]
static GLOBAL: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

const EPOCHS: usize = 4;

fn dataset() -> TrafficDataset {
    let cal = Calendar::new(7, 6, vec![3]);
    TrafficDataset::new(
        Corridor::generate_with_calendar(SimConfig::default(), cal),
        DataConfig::default(),
    )
}

struct RunProfile {
    name: String,
    /// `(allocs, bytes)` per epoch, in order.
    epochs: Vec<(u64, u64)>,
}

impl RunProfile {
    fn steady_state(&self) -> (u64, u64) {
        self.epochs
            .iter()
            .skip(2)
            .fold((0, 0), |(a, b), &(ea, eb)| (a + ea, b + eb))
    }
}

/// Trains `kind` for [`EPOCHS`] epochs and returns the per-epoch hot-path
/// allocation deltas. Counter snapshots are taken at the first batch of
/// every epoch (via the per-batch hook, which runs before any hot-path
/// work in that batch) and once after training completes.
fn profile(data: &TrafficDataset, kind: PredictorKind, adversarial: bool) -> RunProfile {
    let mut cfg = if adversarial {
        TrainConfig::fast_adversarial(FeatureMask::BOTH)
    } else {
        TrainConfig::fast_plain(FeatureMask::BOTH)
    };
    cfg.epochs = EPOCHS;
    cfg.adv_warmup_epochs = 0;
    cfg.max_train_samples = Some(64);
    cfg.batch_size = 32;
    let mut p = build_predictor(kind, HyperPreset::Fast, data, 1);

    let marks: RefCell<Vec<(u64, u64)>> = RefCell::new(Vec::new());
    alloc_count::reset();
    alloc_count::arm();
    {
        let mut opts = TrainOptions {
            poison_hook: Some(Box::new(|ctx: BatchCtx| {
                if ctx.batch == 0 && ctx.attempt == 0 {
                    marks.borrow_mut().push(alloc_count::counters());
                }
                false
            })),
            ..TrainOptions::default()
        };
        train_with_options(p.as_mut(), data, &cfg, &mut opts)
            .expect("alloc_profile: training failed");
    }
    alloc_count::disarm();
    marks.borrow_mut().push(alloc_count::counters());

    let marks = marks.into_inner();
    let epochs = marks
        .windows(2)
        .map(|w| (w[1].0 - w[0].0, w[1].1 - w[0].1))
        .collect();
    RunProfile {
        name: format!(
            "{}_{}",
            if adversarial { "adv" } else { "plain" },
            kind.label()
        ),
        epochs,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let emit = !smoke
        || matches!(
            std::env::var("APOTS_BENCH_SMOKE_EMIT").as_deref(),
            Ok("1") | Ok("true")
        );

    // The zero-allocation contract holds on the serial path; pin it so
    // the profile is deterministic regardless of APOTS_THREADS.
    apots_par::set_threads(1);
    assert!(
        alloc_count::install_probe(),
        "alloc_profile: another hot-path probe is already installed"
    );

    let data = dataset();
    let mut runs = Vec::new();
    for kind in PredictorKind::all() {
        runs.push(profile(&data, kind, false));
    }
    runs.push(profile(&data, PredictorKind::Hybrid, true));
    apots_par::reset_threads();

    for r in &runs {
        let (sa, sb) = r.steady_state();
        let per_epoch: Vec<String> = r
            .epochs
            .iter()
            .map(|&(a, b)| format!("{a} allocs/{b} B"))
            .collect();
        println!(
            "{:<16} epochs [{}]  steady-state: {sa} allocs / {sb} bytes",
            r.name,
            per_epoch.join(", ")
        );
    }

    if emit {
        let dir = std::env::var("APOTS_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = format!("{dir}/BENCH_alloc_profile.json");
        let mut root = apots_serde::Map::new();
        root.insert("target".into(), apots_serde::Json::from("alloc_profile"));
        root.insert(
            "mode".into(),
            apots_serde::Json::from(if smoke { "smoke" } else { "measure" }),
        );
        root.insert("threads".into(), apots_serde::Json::from(1.0));
        root.insert("host".into(), apots_bench::host_json());
        root.insert(
            "runs".into(),
            apots_serde::Json::Arr(
                runs.iter()
                    .map(|r| {
                        let (sa, sb) = r.steady_state();
                        apots_serde::json!({
                            "name": r.name.as_str(),
                            "epochs": apots_serde::Json::Arr(
                                r.epochs
                                    .iter()
                                    .map(|&(a, b)| apots_serde::json!({
                                        "allocs": a as f64,
                                        "bytes": b as f64
                                    }))
                                    .collect()
                            ),
                            "steady_state_allocs": sa as f64,
                            "steady_state_bytes": sb as f64
                        })
                    })
                    .collect(),
            ),
        );
        let doc = apots_serde::Json::Obj(root);
        match std::fs::write(&path, doc.to_string_pretty() + "\n") {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("alloc_profile: could not write {path}: {e}"),
        }
    } else {
        println!("test alloc_profile ... ok (smoke)");
    }
}
