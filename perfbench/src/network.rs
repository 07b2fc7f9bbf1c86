//! `network_report`: a scenario spec is parsed, expanded into a road-network
//! corpus (shockwave propagation over thousands of segments), and a report
//! trains and scores every predictor kind on several evaluation segments,
//! clean and through the scenario's sensor outages. The grid fans out
//! whole jobs over the pool, unlike the kernel-level parallelism of the
//! other workloads.

use std::time::Duration;

use apots::config::{PredictorKind, TrainConfig};
use apots::degrade::evaluate_with_outage;
use apots::eval::evaluate;
use apots::predictor::build_predictor;
use apots::runtime::TrainOptions;
use apots::trainer::train_with_options;
use apots_experiments::network::{
    eval_segments, generate_corpus, network_report, NetworkRunConfig,
};
use apots_serde::Json;
use apots_traffic::{DataConfig, RoadNetwork, ScenarioCorpus, ScenarioSpec};

use crate::host::StealClock;
use crate::stats::{median, tail};
use crate::{fnv64, per_call, set_up, timed, Outcome, RunArgs};

const SEGMENTS: usize = 2048;
const DAYS: usize = 4;
const EVAL_SEGMENTS: usize = 4;

fn spec_text(seed: u64) -> String {
    let mut spec = ScenarioSpec::demo(SEGMENTS, DAYS);
    spec.seed = seed;
    spec.to_json().to_string()
}

fn run_config(seed: u64) -> NetworkRunConfig {
    NetworkRunConfig {
        seed,
        eval_segments: EVAL_SEGMENTS,
        epochs: 1,
        ..NetworkRunConfig::default()
    }
}

/// Checks one report: strict JSON, every evaluation segment with all four
/// kinds, finite clean and outage MAE. Returns the cells that failed.
fn check_report(text: &str, segments: &[usize]) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| format!("report is not strict JSON: {e}"))?;
    let segs = doc
        .get("eval_segments")
        .and_then(Json::as_array)
        .ok_or("report has no eval_segments")?;
    let listed: Vec<usize> = segs
        .iter()
        .filter_map(|s| s.get("segment").and_then(Json::as_usize))
        .collect();
    if listed != segments {
        return Err(format!("report segments {listed:?}, expected {segments:?}"));
    }
    let mut bad = 0;
    for s in segs {
        let kinds = s
            .get("kinds")
            .and_then(Json::as_array)
            .map_or(&[][..], |k| k);
        let labels: Vec<&str> = kinds
            .iter()
            .filter_map(|k| k.get("kind").and_then(Json::as_str))
            .collect();
        let want: Vec<&str> = PredictorKind::all()
            .iter()
            .map(PredictorKind::label)
            .collect();
        if labels != want {
            bad += 4;
            continue;
        }
        for k in kinds {
            let mae = |side: &str| {
                k.get(side)
                    .and_then(|m| m.get("mae"))
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite)
            };
            if !(mae("clean") && mae("outage")) {
                bad += 1;
            }
        }
    }
    Ok(bad)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let text = spec_text(args.seed);
    let (corpus, setups) = set_up(
        || {
            let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("spec: {e}"));
            generate_corpus(&spec)
        },
        drop,
    );
    out.check(
        "the spec survives a render → parse round trip",
        corpus.spec.to_json().to_string() == text,
    );
    let cfg = run_config(args.seed);
    let segments = eval_segments(corpus.network.n_segments(), cfg.eval_segments);
    let cells = segments.len() * PredictorKind::all().len();

    let budget = args.budget().mul_f64(if args.trace { 0.3 } else { 1.0 });
    let t0 = std::time::Instant::now();
    let mut times = Vec::new();
    let mut hashes = Vec::new();
    while times.len() < 2 || t0.elapsed() + Duration::from_secs_f64(median(&times) / 2.0) < budget {
        let clock = StealClock::start();
        let (report, secs) = timed(|| network_report(&corpus, &cfg));
        let text = report.to_string();
        // Wall time with the stolen share taken out.
        times.push(secs * (1.0 - clock.fraction()));
        hashes.push(fnv64(text.bytes()));
        out.attempted += cells as u64;
        match check_report(&text, &segments) {
            Ok(bad) => out.failed += bad as u64,
            Err(e) => {
                out.failed += cells as u64;
                out.check(e, false);
            }
        }
    }
    out.check(
        "every report repetition is byte-identical",
        hashes.iter().all(|h| *h == hashes[0]),
    );
    let report_s = median(&times);
    let tl = tail(&times, 0.99);
    out.info.push(format!(
        "detail {{\"corpus_gen_s\":{},\"report_s\":{report_s},\"reports\":{},\"report_tail_s\":{},\"tail_percentile\":{},\"report_s_all\":{times:?},\
         \"cells_per_report\":{cells},\"report_fnv\":\"{:#018x}\",\"corpus_checksum\":\"{:#018x}\",\
         \"segments\":{SEGMENTS},\"days\":{DAYS},\"eval_segments\":{segments:?}}}",
        median(&setups),
        times.len(),
        tl.value,
        tl.percentile,
        hashes[0],
        corpus.checksum(),
    ));
    if !args.trace {
        out.metric("setup_s", median(&setups));
        out.metric("peak_rss_mb", crate::host::peak_rss_mb());
        out.metric("work_per_s", cells as f64 / report_s);
        out.metric("p50_ms", report_s * 1e3);
        return out;
    }
    traced(
        &corpus,
        &cfg,
        &text,
        &segments,
        report_s,
        median(&setups),
        &mut out,
    );
    out
}

/// Per-layer attribution: one traced report for the registry counts and
/// the tracing overhead, then each stage timed through its public entry.
fn traced(
    corpus: &ScenarioCorpus,
    cfg: &NetworkRunConfig,
    text: &str,
    segments: &[usize],
    report_s: f64,
    corpus_gen_s: f64,
    out: &mut Outcome,
) {
    use apots_obs::metrics as m;
    let cells = (segments.len() * PredictorKind::all().len()) as f64;
    apots_obs::enable(None);
    let (_, traced_s) = timed(|| network_report(corpus, cfg));
    let counters = [
        ("tensor.kernel_calls.matmul", m::KERNEL_MATMUL.get()),
        (
            "tensor.kernel_calls.matmul_at_b",
            m::KERNEL_MATMUL_AT_B.get(),
        ),
        (
            "tensor.kernel_calls.matmul_a_bt",
            m::KERNEL_MATMUL_A_BT.get(),
        ),
        (
            "tensor.kernel_calls.matmul_flat",
            m::KERNEL_MATMUL_FLAT.get(),
        ),
        ("par.regions_pooled", m::PAR_REGIONS_POOLED.get()),
        ("par.regions_inline", m::PAR_REGIONS_INLINE.get()),
        ("par.tasks", m::PAR_TASKS.get()),
    ];
    apots_obs::disable();
    for (name, v) in counters {
        out.metric(name, v as f64 / cells);
    }
    out.metric("obs.trace_overhead", traced_s / report_s - 1.0);

    let slice = Duration::from_millis(200);
    out.metric(
        "traffic.spec_parse_us",
        per_call(slice, || {
            std::hint::black_box(ScenarioSpec::parse(text).expect("spec parses"));
        }) * 1e6,
    );
    let spec = &corpus.spec;
    let (_, runs) = set_up(
        || RoadNetwork::generate_plain(spec.network_config(), spec.calendar()),
        drop,
    );
    let propagation_s = median(&runs);
    out.metric("traffic.propagation_s", propagation_s);
    out.metric("traffic.corpus_rest_s", corpus_gen_s - propagation_s);

    // The report's per-segment preparation runs serially on the driving
    // thread; each grid cell runs on one pool thread with its kernels
    // inline, so the replay pins the pool to one thread.
    let threads = apots_par::current_threads();
    apots_par::set_threads(1);
    let mut prep = Vec::new();
    let mut train: [Vec<f64>; 4] = Default::default();
    let mut eval_ms = Vec::new();
    let mut outage_ms = Vec::new();
    for &seg in segments {
        let split_seed = cfg.seed ^ ((seg as u64 + 1).wrapping_mul(0x9E37_79B9));
        let (data, secs) = timed(|| {
            corpus.dataset_for(
                seg,
                cfg.m,
                DataConfig {
                    seed: split_seed,
                    ..DataConfig::default()
                },
            )
        });
        prep.push(secs);
        let view = corpus.outage_view_for(seg, cfg.m);
        let samples: Vec<usize> = data
            .test_samples()
            .iter()
            .copied()
            .take(cfg.eval_samples.max(1))
            .collect();
        for (ki, kind) in PredictorKind::all().into_iter().enumerate() {
            let tc = TrainConfig {
                epochs: cfg.epochs,
                max_train_samples: cfg.max_train_samples,
                seed: split_seed ^ 0x5CE4,
                ..TrainConfig::plain(cfg.mask)
            };
            let init_seed = tc.seed ^ u64::from(kind.label().as_bytes()[0]);
            let mut p = build_predictor(kind, cfg.preset, &data, init_seed);
            let (r, secs) =
                timed(|| train_with_options(p.as_mut(), &data, &tc, &mut TrainOptions::default()));
            r.unwrap_or_else(|e| panic!("replayed training {kind:?} failed: {e}"));
            train[ki].push(secs);
            let (_, e) = timed(|| evaluate(p.as_mut(), &data, cfg.mask, &samples));
            eval_ms.push(e * 1e3);
            let (_, o) =
                timed(|| evaluate_with_outage(p.as_mut(), &data, cfg.mask, &samples, &view));
            outage_ms.push(o * 1e3);
        }
    }
    apots_par::set_threads(threads);

    let names = [
        "core.train_cell_s.F",
        "core.train_cell_s.L",
        "core.train_cell_s.C",
        "core.train_cell_s.H",
    ];
    for (name, secs) in names.iter().zip(&train) {
        out.metric(name, median(secs));
    }
    let cell_sum: f64 = train.iter().flatten().sum::<f64>()
        + (eval_ms.iter().sum::<f64>() + outage_ms.iter().sum::<f64>()) / 1e3;
    let prep_sum: f64 = prep.iter().sum();
    out.metric("traffic.dataset_for_ms", median(&prep) * 1e3);
    out.metric("core.eval_ms", median(&eval_ms));
    out.metric("core.eval_outage_ms", median(&outage_ms));
    out.metric(
        "par.fanout_efficiency",
        cell_sum / (report_s * threads as f64),
    );
    out.metric(
        "coverage",
        (prep_sum + cell_sum / threads as f64) / report_s,
    );
}
