//! `adv_train`: the paper's adversarial loop on the H predictor, as a batch
//! job. Every batch predicts α shifted windows, trains D on real vs fake
//! sequences, then backpropagates each window with the adversarial term.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::encode::{encode_context, encode_inputs};
use apots::predictor::{build_predictor, Predictor};
use apots::runtime::TrainOptions;
use apots::trainer::{build_discriminator, train_apots_with_options};
use apots::{Checkpoint, Discriminator};
use apots_nn::loss::{bce_with_logits, generator_loss_saturating, mse};
use apots_nn::optim::{clip_global_norm, Adam, Optimizer};
use apots_tensor::rng::seeded;
use apots_tensor::Tensor;
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

use crate::host::StealClock;
use crate::stats::{median, tail};
use crate::{fnv64, per_call, probe, set_up, Outcome, RunArgs};

const KIND: PredictorKind = PredictorKind::Hybrid;
const BATCH: usize = 64;
const SAMPLES_PER_EPOCH: usize = 512;
const MASK: FeatureMask = FeatureMask::BOTH;

struct State {
    data: TrafficDataset,
    pred: Box<dyn Predictor>,
    disc: Discriminator,
    cfg: TrainConfig,
}

fn build(seed: u64) -> State {
    let sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let data = TrafficDataset::new(
        Corridor::generate_with_calendar(sim, Calendar::new(8, 6, vec![])),
        DataConfig {
            seed: seed ^ 0xDA7A,
            ..DataConfig::default()
        },
    );
    let mut cfg = TrainConfig::fast_adversarial(MASK);
    cfg.epochs = 1;
    cfg.adv_warmup_epochs = 0;
    cfg.batch_size = BATCH;
    cfg.max_train_samples = Some(SAMPLES_PER_EPOCH);
    cfg.seed = seed;
    let pred = build_predictor(KIND, HyperPreset::Fast, &data, seed);
    let disc = build_discriminator(&data, &cfg);
    State {
        data,
        pred,
        disc,
        cfg,
    }
}

/// One timed adversarial epoch.
struct Epoch {
    secs: f64,
    batch_secs: Vec<f64>,
    /// Hot-path windows each batch opened.
    windows: Vec<u64>,
    busy_ns: u64,
    /// Share of wanted CPU time the hypervisor stole during the epoch.
    steal: f64,
    d_loss: f32,
    final_mse: f32,
    rollbacks: usize,
}

/// Runs one epoch, stamping each batch start through the trainer's
/// per-batch hook (which leaves the batch untouched).
fn epoch(st: &mut State, index: u64) -> Epoch {
    st.cfg.seed = st.cfg.seed.wrapping_add(index);
    let stamps: RefCell<Vec<(Instant, u64)>> = RefCell::new(Vec::with_capacity(16));
    let mut options = TrainOptions {
        poison_hook: Some(Box::new(|_| {
            stamps.borrow_mut().push((Instant::now(), probe::read().0));
            false
        })),
        ..TrainOptions::default()
    };
    let (_, busy0) = probe::read();
    let clock = StealClock::start();
    let t0 = Instant::now();
    let report = train_apots_with_options(
        st.pred.as_mut(),
        &mut st.disc,
        &st.data,
        &st.cfg,
        &mut options,
    )
    .unwrap_or_else(|e| panic!("adversarial epoch failed: {e}"));
    let end = (Instant::now(), probe::read().0);
    let secs = t0.elapsed().as_secs_f64();
    drop(options);
    let mut marks = stamps.into_inner();
    marks.push(end);
    let stats = report.epochs.last().copied().expect("one epoch ran");
    Epoch {
        secs,
        batch_secs: marks
            .windows(2)
            .map(|w| (w[1].0 - w[0].0).as_secs_f64())
            .collect(),
        windows: marks.windows(2).map(|w| w[1].1 - w[0].1).collect(),
        busy_ns: probe::read().1 - busy0,
        steal: clock.fraction(),
        d_loss: stats.d_loss,
        final_mse: stats.mse,
        rollbacks: report.divergence_rollbacks,
    }
}

fn param_fnv(p: &mut dyn Predictor) -> u64 {
    let params = p.params_mut();
    fnv64(params.iter().flat_map(|q| {
        q.value
            .data()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
    }))
}

pub fn run(args: &RunArgs) -> Outcome {
    probe::install();
    let mut out = Outcome::default();
    let (mut st, setups) = set_up(|| build(args.seed), drop);
    let alpha = st.data.config().alpha;
    let windows_per_batch = 2 * alpha as u64 + 2;

    // A traced run spends 60% of its budget on epochs: a warm-up, then
    // untraced and traced epochs in turn, so drift in the machine's speed
    // hits both sides of the overhead figure alike. The rest goes to the
    // layer replay.
    let budget = args.budget();
    let traced_until = budget.mul_f64(0.6);
    let t_start = Instant::now();
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut traced: Vec<Epoch> = Vec::new();
    let mut counters = read_counters();
    counters.iter_mut().for_each(|c| c.1 = 0);
    let mut below_grain = 0u64;
    let mut hash = None;
    loop {
        // Stop when another epoch would mostly run past the budget.
        let last = epochs.iter().chain(&traced).last().map_or(0.0, |e| e.secs);
        let projected = t_start.elapsed().as_secs_f64() + last / 2.0;
        let done = if args.trace {
            !traced.is_empty() && epochs.len() >= 2 && projected >= traced_until.as_secs_f64()
        } else {
            !epochs.is_empty() && projected >= budget.as_secs_f64()
        };
        if done {
            break;
        }
        let tracing = args.trace && (epochs.len() + traced.len()) % 2 == 1;
        if tracing {
            apots_obs::enable(None);
        }
        let e = epoch(&mut st, (epochs.len() + traced.len()) as u64);
        if hash.is_none() {
            hash = Some(param_fnv(st.pred.as_mut()));
        }
        if tracing {
            for (sum, (_, v)) in counters.iter_mut().zip(read_counters()) {
                sum.1 += v;
            }
            below_grain += apots_obs::metrics::KERNEL_SERIAL_BELOW_GRAIN.get();
            apots_obs::disable();
            traced.push(e);
        } else {
            epochs.push(e);
        }
    }

    for (i, e) in epochs.iter().chain(&traced).enumerate() {
        out.attempted += e.batch_secs.len() as u64;
        let real_step = e.d_loss > 0.0 && e.d_loss.is_finite();
        let windows_ok = e.windows.iter().all(|&w| w == windows_per_batch);
        let ok = real_step && windows_ok && e.rollbacks == 0 && e.final_mse.is_finite();
        if !ok {
            out.failed += e.batch_secs.len() as u64;
        }
        out.check(format!("epoch {i}: d_loss {} > 0", e.d_loss), real_step);
        out.check(
            format!(
                "epoch {i}: {windows_per_batch} hot-path windows per batch, saw {:?}",
                e.windows
            ),
            windows_ok,
        );
        out.check(
            format!("epoch {i}: no sentinel rollbacks ({})", e.rollbacks),
            e.rollbacks == 0,
        );
        out.check(
            format!("epoch {i}: finite final_mse {}", e.final_mse),
            e.final_mse.is_finite(),
        );
    }

    // Wall-clock figures with the stolen share of each epoch taken out.
    let batch_ms: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.batch_secs.iter().map(move |s| s * 1e3 * (1.0 - e.steal)))
        .collect();
    // Throughput is the median epoch's, so a burst of stolen time moves
    // one epoch rather than the figure.
    let rates: Vec<f64> = epochs
        .iter()
        .map(|e| (e.batch_secs.len() * BATCH) as f64 / (e.secs * (1.0 - e.steal)))
        .collect();
    let rate = median(&rates);
    let p50 = median(&batch_ms);
    let tl = tail(&batch_ms, 0.99);
    let all: Vec<&Epoch> = epochs.iter().chain(&traced).collect();
    let busy: u64 = all.iter().map(|e| e.busy_ns).sum();
    let all_secs: f64 = all.iter().map(|e| e.secs).sum();
    out.info.push(format!(
        "detail {{\"train_samples_per_s\":{},\"batch_p50_ms\":{p50},\"batch_tail_ms\":{},\
         \"tail_percentile\":{},\"batches\":{},\"epoch_wall_s\":{:?},\"epoch_steal\":{:?},\"setups\":{},\"setup_s\":{},\
         \"param_fnv_after_epoch0\":\"{:#018x}\",\"final_mse\":{},\"d_loss\":{}}}",
        rate,
        tl.value,
        tl.percentile,
        batch_ms.len(),
        epochs.iter().map(|e| e.secs).collect::<Vec<_>>(),
        epochs.iter().map(|e| e.steal).collect::<Vec<_>>(),
        setups.len(),
        median(&setups),
        hash.unwrap_or(0),
        all.last().map_or(f32::NAN, |e| e.final_mse),
        all.last().map_or(f32::NAN, |e| e.d_loss),
    ));

    if !args.trace {
        out.metric("setup_s", median(&setups));
        out.metric("peak_rss_mb", crate::host::peak_rss_mb());
        out.metric("work_per_s", rate);
        out.metric("p50_ms", p50);
        return out;
    }

    // ---- Per-layer attribution (traced run). ----
    let traced_ms: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.batch_secs.iter().map(move |s| s * 1e3 * (1.0 - e.steal)))
        .collect();
    let traced_batches = traced_ms.len().max(1) as f64;
    // The untraced side of the overhead leaves out the warm-up epoch.
    let plain_ms: Vec<f64> = epochs[1..]
        .iter()
        .flat_map(|e| e.batch_secs.iter().map(move |s| s * 1e3 * (1.0 - e.steal)))
        .collect();
    let p50 = median(&plain_ms);
    out.metric("obs.trace_overhead", median(&traced_ms) / p50 - 1.0);
    out.metric("core.hotpath_share", busy as f64 / 1e9 / all_secs);
    let windows: u64 = all.iter().flat_map(|e| &e.windows).sum();
    let batches: usize = all.iter().map(|e| e.windows.len()).sum();
    out.metric(
        "core.hotpath_windows_per_batch",
        windows as f64 / batches as f64,
    );
    for (name, v) in &counters {
        out.metric(name, *v as f64 / traced_batches);
    }
    let matmuls: u64 = counters
        .iter()
        .filter(|(n, _)| n.starts_with("tensor.kernel_calls.matmul"))
        .map(|(_, v)| v)
        .sum();
    out.metric(
        "tensor.serial_below_grain_share",
        below_grain as f64 / matmuls.max(1) as f64,
    );

    let remaining = budget.saturating_sub(t_start.elapsed());
    let layer = replay(&mut st, args.seed, remaining);
    let a = alpha as f64;
    let per_batch = 2.0 * a * layer.encode_inputs
        + layer.encode_context
        + 2.0 * a * layer.fwd
        + a * layer.bwd
        + layer.disc_step
        + layer.disc_adv
        + layer.clip_p
        + layer.clip_d
        + layer.adam_p
        + layer.adam_d;
    out.metric("coverage", per_batch * 1e3 / p50);
    out.metric("core.encode_inputs_ms", layer.encode_inputs * 1e3);
    out.metric("core.encode_context_ms", layer.encode_context * 1e3);
    out.metric("core.predictor_fwd_train_ms", layer.fwd * 1e3);
    out.metric("core.predictor_bwd_ms", layer.bwd * 1e3);
    out.metric(
        "core.disc_fwd_bwd_ms",
        (layer.disc_step + layer.disc_adv) / 2.0 * 1e3,
    );
    out.metric("nn.clip_ms", (layer.clip_p + layer.clip_d) / 2.0 * 1e3);
    out.metric("nn.adam_step_ms", (layer.adam_p + layer.adam_d) / 2.0 * 1e3);
    out
}

/// Registry counters that attribute an adversarial batch, by metric name.
fn read_counters() -> Vec<(&'static str, u64)> {
    use apots_obs::metrics as m;
    vec![
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
        ("tensor.kernel_calls.map", m::KERNEL_MAP.get()),
        ("tensor.kernel_calls.zip", m::KERNEL_ZIP.get()),
        ("tensor.kernel_calls.sum_axis0", m::KERNEL_SUM_AXIS0.get()),
        (
            "tensor.kernel_calls.add_row_broadcast",
            m::KERNEL_ADD_ROW_BROADCAST.get(),
        ),
        ("par.regions_pooled", m::PAR_REGIONS_POOLED.get()),
        ("par.regions_inline", m::PAR_REGIONS_INLINE.get()),
        ("par.tasks", m::PAR_TASKS.get()),
    ]
}

/// Seconds per call of each public layer function an adversarial batch
/// calls, on the batch shapes the trainer uses.
struct Layers {
    encode_inputs: f64,
    encode_context: f64,
    fwd: f64,
    bwd: f64,
    disc_step: f64,
    disc_adv: f64,
    clip_p: f64,
    clip_d: f64,
    adam_p: f64,
    adam_d: f64,
}

fn replay(st: &mut State, seed: u64, budget: Duration) -> Layers {
    // A copy of the trained models, so the replay's optimizer steps leave
    // the measured run's state alone.
    let mut p = Checkpoint::capture(st.pred.as_mut())
        .restore(HyperPreset::Fast, &st.data)
        .expect("checkpoint restores into its own architecture");
    let mut d = build_discriminator(&st.data, &st.cfg);
    let data = &st.data;
    let alpha = data.config().alpha;
    let batch = data.train_batches(BATCH, &mut seeded(seed))[0].clone();
    let windows: Vec<Vec<usize>> = (0..alpha)
        .map(|k| batch.iter().map(|&t| t - (alpha - 1 - k)).collect())
        .collect();
    let slice = (budget / 12).clamp(Duration::from_millis(50), Duration::from_millis(500));

    let mut k = 0;
    let t_inputs = per_call(slice, || {
        k = (k + 1) % alpha;
        black_box(encode_inputs(KIND, data, &windows[k], MASK));
    });
    let t_context = per_call(slice, || {
        black_box(encode_context(data, &batch, MASK));
    });
    let (input, targets) = encode_inputs(KIND, data, &windows[alpha - 1], MASK);
    let fwd = per_call(slice, || {
        black_box(p.forward(&input, true));
    });
    let fwd_mse_bwd = per_call(slice, || {
        let out = p.forward(&input, true);
        let (_, g) = mse(&out, &targets);
        p.backward(&g);
    });

    let (real, cond) = encode_context(data, &batch, MASK);
    let fake = Tensor::build(&[BATCH, alpha], |v| {
        for (i, x) in v.iter_mut().enumerate() {
            *x = real.data()[i] * 0.9;
        }
    });
    let seq_all = Tensor::build(&[2 * BATCH, alpha], |v| {
        v[..BATCH * alpha].copy_from_slice(real.data());
        v[BATCH * alpha..].copy_from_slice(fake.data());
    });
    let cw = cond.cols();
    let cond_all = Tensor::build(&[2 * BATCH, cw], |v| {
        v[..BATCH * cw].copy_from_slice(cond.data());
        v[BATCH * cw..].copy_from_slice(cond.data());
    });
    let labels = Tensor::build(&[2 * BATCH, 1], |v| v[..BATCH].fill(1.0));
    let disc_step = per_call(slice, || {
        let logits = d.forward(&seq_all, &cond_all, true);
        let (_, g) = bce_with_logits(&logits, &labels);
        black_box(d.backward(&g));
    });
    let disc_adv = per_call(slice, || {
        let logits = d.forward(&fake, &cond, true);
        let (_, g) = generator_loss_saturating(&logits);
        black_box(d.backward(&g));
    });

    let clip = st.cfg.grad_clip;
    let clip_p = per_call(slice, || {
        black_box(clip_global_norm(&mut p.params_mut(), clip));
    });
    let clip_d = per_call(slice, || {
        black_box(clip_global_norm(&mut d.params_mut(), clip));
    });
    let mut opt_p = Adam::new(st.cfg.learning_rate);
    let mut opt_d = Adam::new(st.cfg.learning_rate);
    let adam_p = per_call(slice, || opt_p.step(p.params_mut()));
    let adam_d = per_call(slice, || opt_d.step(d.params_mut()));

    Layers {
        encode_inputs: t_inputs,
        encode_context: t_context,
        fwd,
        bwd: (fwd_mse_bwd - fwd).max(0.0),
        disc_step,
        disc_adv,
        clip_p,
        clip_d,
        adam_p,
        adam_d,
    }
}
