//! `serve_light` / `serve_heavy`: `apots-serve` under an open-loop, seeded
//! Poisson stream of `/predict?road&t` requests from independent users.
//!
//! Each run drives two fixed rates (`low`, `high`), then saturates the
//! server with a closed loop over a fixed request count. An open-loop
//! request that had to queue behind a busy connection is timed from its
//! scheduled send time, so a stall also charges the requests queued behind
//! it; how late the generator itself ran is reported next to the
//! latencies. The end-to-end figures come from the saturated rounds: on a
//! shared VM the open-loop tails are dominated by descheduled threads (see
//! NOTES.md), so they are reported in the `detail` line only.
//!
//! The generator runs in this process with at most `nproc` client
//! threads, one keep-alive connection each and never more connections
//! than the server has connection workers (each worker stays on one
//! connection, so an extra one would starve). Requests are never
//! pipelined.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apots::checkpoint::Checkpoint;
use apots::config::{HyperPreset, PredictorKind};
use apots::encode::encode_features;
use apots::predictor::build_predictor;
use apots::InferenceMode;
use apots_serve::{Request, ResponseBuf, ServeConfig, Server};
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SampleFeatures, SimConfig, TrafficDataset};

use crate::client::Client;
use crate::host::StealClock;
use crate::schedule::{poisson, Arrival, QuerySpace};
use crate::stats::{median, tail};
use crate::{fnv64, per_call, set_up, Outcome, RunArgs};

pub enum Lane {
    /// Fast-preset FC model on the Exact lane: HTTP and hand-off dominate.
    Light,
    /// Paper-preset H model on the Int8 lane: the forward pass dominates.
    Heavy,
}

/// Traffic and model of one serve workload.
struct Spec {
    kind: PredictorKind,
    preset: HyperPreset,
    mode: InferenceMode,
    /// Fixed rates, requests/s.
    low: f64,
    high: f64,
    /// Rough closed-loop capacity, requests/s: sizes the saturation
    /// phase's fixed request count to about half the run.
    capacity: f64,
}

impl Lane {
    fn spec(&self) -> Spec {
        match self {
            Lane::Light => Spec {
                kind: PredictorKind::Fc,
                preset: HyperPreset::Fast,
                mode: InferenceMode::Exact,
                low: 1000.0,
                high: 6000.0,
                capacity: 40_000.0,
            },
            Lane::Heavy => Spec {
                kind: PredictorKind::Hybrid,
                preset: HyperPreset::Paper,
                mode: InferenceMode::Int8,
                low: 60.0,
                high: 200.0,
                capacity: 500.0,
            },
        }
    }
}

const MASK: FeatureMask = FeatureMask::BOTH;
/// Rounds the saturation phase is split into.
const SAT_ROUNDS: usize = 8;

fn dataset(seed: u64) -> Arc<TrafficDataset> {
    let sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    Arc::new(TrafficDataset::new(
        Corridor::generate_with_calendar(sim, Calendar::new(8, 6, vec![])),
        DataConfig {
            seed: seed ^ 0xDA7A,
            ..DataConfig::default()
        },
    ))
}

fn space(data: &TrafficDataset) -> QuerySpace {
    QuerySpace {
        roads: data.corridor().n_roads(),
        tau_lo: data.config().alpha + data.config().beta,
        tau_hi: data.corridor().intervals(),
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<Client<TcpStream>> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(Client::new(s))
}

/// A booted server with its client connections.
struct Live {
    server: Server,
    clients: Vec<Client<TcpStream>>,
    checkpoint: Checkpoint,
    data: Arc<TrafficDataset>,
}

/// Set-up: dataset, model, server boot and a closed-loop warm-up.
fn boot(spec: &Spec, seed: u64) -> Live {
    let data = dataset(seed);
    let mut model = build_predictor(spec.kind, spec.preset, &data, seed);
    let checkpoint = Checkpoint::capture(model.as_mut());
    let cfg = ServeConfig {
        preset: spec.preset,
        quant: spec.mode,
        ..ServeConfig::default()
    };
    let conns = crate::host::nproc().min(cfg.workers);
    let server = Server::start(cfg, data.clone(), checkpoint.clone(), None)
        .unwrap_or_else(|e| panic!("server start: {e}"));
    let mut clients: Vec<_> = (0..conns)
        .map(|_| connect(server.addr()).expect("connect to the server"))
        .collect();
    // Warm-up: about a tenth of a second of requests at capacity.
    let warm = poisson(1e6, 1.0, space(&data), seed ^ 0x3A7);
    let n_warm = ((spec.capacity / 10.0) as usize).clamp(50, 1000);
    for (i, a) in warm.iter().take(n_warm).enumerate() {
        let r = clients[i % conns]
            .get(&format!("/predict?road={}&t={}", a.road, a.tau))
            .expect("warm-up request");
        assert_eq!(r.status, 200, "warm-up request failed: {}", r.body);
    }
    Live {
        server,
        clients,
        checkpoint,
        data,
    }
}

/// What became of one scheduled request.
struct Record {
    index: u32,
    /// Status of the answer; 0 when the connection failed.
    status: u16,
    /// FNV-1a of the response body.
    body: u64,
    /// Send time minus scheduled time, ns.
    late_ns: u64,
    /// Completion minus scheduled time, ns. When a connection was free at
    /// the scheduled time, the clock starts at the actual send instead:
    /// the gap is then the generator's own timer overshoot, not a wait
    /// the server imposed.
    latency_ns: u64,
}

/// One phase. Open loop: requests are taken in schedule order by whichever
/// connection is free, each sent no earlier than its scheduled time.
/// Closed loop (`closed`): the schedule's times are ignored and each
/// connection sends its next request as soon as its answer arrives. A
/// phase running past `give_up` stops sending; its unsent requests are not
/// attempted. The first transport error, if any, is returned with the
/// records.
fn drive(
    live: &mut Live,
    sched: &[Arrival],
    give_up: Duration,
    closed: bool,
) -> (Vec<Record>, Option<String>) {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(sched.len()));
    let first_error = Mutex::new(None);
    let addr = live.server.addr();
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        for client in live.clients.iter_mut() {
            let (next, records, first_error) = (&next, &records, &first_error);
            s.spawn(move || {
                // Room for the whole schedule, so a client that takes more
                // than its share never reallocates: only the pages written
                // become resident, and peak memory does not depend on how
                // the requests happened to split.
                let mut mine = Vec::with_capacity(sched.len());
                let mut path = String::with_capacity(64);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sched.len() {
                        break;
                    }
                    let due = start + Duration::from_nanos(sched[i].at_ns);
                    let queued = !closed && Instant::now() > due;
                    if !closed {
                        wait_until(due);
                    }
                    let sent = Instant::now();
                    if sent - start > give_up {
                        next.store(sched.len(), Ordering::Relaxed);
                        break;
                    }
                    let clock = if queued { due } else { sent };
                    path.clear();
                    let _ = write!(path, "/predict?road={}&t={}", sched[i].road, sched[i].tau);
                    let (status, body) = match client.get(&path) {
                        Ok(r) => (r.status, fnv64(r.body.bytes())),
                        Err(e) => {
                            first_error
                                .lock()
                                .expect("no client thread panicked")
                                .get_or_insert(e.to_string());
                            // The connection is in an unknown state: replace it.
                            if let Ok(c) = connect(addr) {
                                *client = c;
                            }
                            (0, 0)
                        }
                    };
                    let done = Instant::now();
                    mine.push(Record {
                        index: i as u32,
                        status,
                        body,
                        late_ns: if closed {
                            0
                        } else {
                            (sent - due).as_nanos() as u64
                        },
                        latency_ns: (done - clock).as_nanos() as u64,
                    });
                }
                records
                    .lock()
                    .expect("no client thread panicked")
                    .extend(mine);
            });
        }
    });
    let mut out = records.into_inner().expect("no client thread panicked");
    out.sort_by_key(|r| r.index);
    (
        out,
        first_error.into_inner().expect("no client thread panicked"),
    )
}

/// Sleeps until `due`. Spinning instead would keep both client threads
/// runnable and steal the CPUs the server needs.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Latency summary of one phase.
struct Phase {
    rate: f64,
    sent: usize,
    p50_ms: f64,
    tail_ms: f64,
    tail_pct: f64,
    late_p99_ms: f64,
    errors: usize,
    /// Completed requests per second with the stolen share of the phase
    /// taken out (meaningful for the saturating phase).
    qps: f64,
    steal: f64,
    first_error: Option<String>,
}

/// Drives one phase and summarizes it.
fn phase(
    live: &mut Live,
    rate: f64,
    sched: &[Arrival],
    give_up: Duration,
    closed: bool,
) -> (Vec<Record>, Phase) {
    let clock = StealClock::start();
    let t0 = Instant::now();
    let (recs, error) = drive(live, sched, give_up, closed);
    let wall = t0.elapsed().as_secs_f64();
    let steal = clock.fraction();
    let lat: Vec<f64> = recs.iter().map(|r| r.latency_ns as f64 / 1e6).collect();
    let late: Vec<f64> = recs.iter().map(|r| r.late_ns as f64 / 1e6).collect();
    let t = tail(&lat, 0.99);
    let p = Phase {
        rate,
        sent: recs.len(),
        p50_ms: median(&lat),
        tail_ms: t.value,
        tail_pct: t.percentile,
        late_p99_ms: tail(&late, 0.99).value,
        errors: recs.iter().filter(|r| r.status != 200).count(),
        first_error: error,
        qps: recs.len() as f64 / (wall * (1.0 - steal)),
        steal,
    };
    (recs, p)
}

impl Phase {
    fn json(&self, name: &str) -> String {
        format!(
            "\"{name}\":{{\"rate\":{},\"sent\":{},\"p50_ms\":{},\"tail_ms\":{},\
             \"tail_percentile\":{},\"generator_late_ms_p99\":{},\"errors\":{},\"first_error\":{:?},\
             \"qps\":{},\"steal\":{}}}",
            // A closed-loop phase has no offered rate.
            if self.rate.is_finite() { self.rate.to_string() } else { "null".into() },
            self.sent,
            self.p50_ms,
            self.tail_ms,
            self.tail_pct,
            self.late_p99_ms,
            self.errors,
            self.first_error.as_deref().unwrap_or(""),
            self.qps,
            self.steal,
        )
    }
}

/// The reference answer for every distinct requested `(road, τ)`: the
/// body the server must return, computed in-process on the same lane.
/// The lanes are batch-composition invariant, so batching the reference
/// differently from the server changes no bit.
fn references(
    live: &Live,
    spec: &Spec,
    keys: &[(usize, usize)],
) -> HashMap<(usize, usize), String> {
    let data = &live.data;
    let mut replica = live
        .checkpoint
        .restore(spec.preset, data)
        .expect("checkpoint restores into its own architecture");
    replica.prepare(spec.mode);
    let beta = data.config().beta;
    let norm = data.speed_norm();
    let mut out = HashMap::with_capacity(keys.len());
    for chunk in keys.chunks(64) {
        let feats: Vec<SampleFeatures> = chunk
            .iter()
            .map(|&(road, tau)| data.features_for_road(road, tau - beta, MASK))
            .collect();
        let (input, _) = encode_features(replica.kind(), &feats);
        let y = replica.forward_infer(&input, spec.mode);
        for (i, &(road, tau)) in chunk.iter().enumerate() {
            let speed = norm.denormalize(y.at2(i, 0));
            out.insert(
                (road, tau),
                format!("{{\"road\":{road},\"t\":{tau},\"speed_kmh\":{speed}}}"),
            );
        }
    }
    out
}

/// Counts requests whose answer was not a 200 with the reference body.
fn check_bodies(live: &Live, spec: &Spec, phases: &[(&[Arrival], &[Record])], out: &mut Outcome) {
    let mut keys: Vec<(usize, usize)> = phases
        .iter()
        .flat_map(|(s, recs)| {
            recs.iter()
                .map(|r| (s[r.index as usize].road, s[r.index as usize].tau))
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let refs = references(live, spec, &keys);
    let mut failed = 0u64;
    let mut first: Option<String> = None;
    for (sched, recs) in phases {
        for r in *recs {
            let a = sched[r.index as usize];
            let want = refs.get(&(a.road, a.tau)).map(|b| fnv64(b.bytes()));
            let ok = r.status == 200 && Some(r.body) == want;
            if !ok {
                failed += 1;
                first.get_or_insert_with(|| {
                    format!(
                        "road {} t {}: status {} body fnv {:#x}, want body {:?}",
                        a.road,
                        a.tau,
                        r.status,
                        r.body,
                        refs.get(&(a.road, a.tau))
                    )
                });
            }
        }
        out.attempted += recs.len() as u64;
    }
    out.failed += failed;
    out.check(
        format!(
            "every response equals the in-process reference ({failed} differ{})",
            first.map(|f| format!("; first: {f}")).unwrap_or_default()
        ),
        failed == 0,
    );
}

pub fn run(lane: Lane, args: &RunArgs) -> Outcome {
    let spec = lane.spec();
    let mut out = Outcome::default();
    let (mut live, setups) = set_up(|| boot(&spec, args.seed), stop);
    let q = space(&live.data);
    let s = args.seconds;
    let low_sched = poisson(spec.low, s * 0.2, q, args.seed ^ 0x10);
    let high_sched = poisson(spec.high, s * 0.2, q, args.seed ^ 0x41);
    let give_up = |secs: f64| Duration::from_secs_f64(secs * 2.0 + 0.5);

    if args.trace {
        traced(
            &spec,
            &mut live,
            &low_sched,
            &high_sched,
            give_up(s * 0.2),
            &mut out,
        );
        stop(live);
        return out;
    }
    let (low_recs, low) = phase(&mut live, spec.low, &low_sched, give_up(s * 0.2), false);
    let (high_recs, high) = phase(&mut live, spec.high, &high_sched, give_up(s * 0.2), false);
    // Saturation: a fixed number of requests, each connection sending its
    // next one as soon as its answer arrives, so the server is never idle.
    // The completion rate is the most it sustains at this concurrency. It
    // runs as several short rounds and reports the median round, so a burst
    // of interference from other tenants moves one round, not the figure.
    let per_round = (spec.capacity * s * 0.5 / SAT_ROUNDS as f64) as usize;
    let rounds: Vec<(Vec<Arrival>, Vec<Record>, Phase)> = (0..SAT_ROUNDS)
        .map(|r| {
            let rate = spec.capacity * 4.0;
            let sched = poisson(
                rate,
                per_round as f64 / rate * 1.2,
                q,
                args.seed ^ (0x5A7 + r as u64),
            );
            let sched: Vec<Arrival> = sched.into_iter().take(per_round).collect();
            let (recs, p) = phase(&mut live, f64::INFINITY, &sched, give_up(s * 0.3), true);
            (sched, recs, p)
        })
        .collect();
    let sat_qps = median(&rounds.iter().map(|r| r.2.qps).collect::<Vec<_>>());
    // Every CPU is busy throughout a saturated round, so the stolen share
    // stretches each request alike and is taken out of its median too.
    let sat_p50 = median(
        &rounds
            .iter()
            .map(|r| r.2.p50_ms * (1.0 - r.2.steal))
            .collect::<Vec<_>>(),
    );

    let mut phases: Vec<(&[Arrival], &[Record])> =
        vec![(&low_sched, &low_recs), (&high_sched, &high_recs)];
    phases.extend(rounds.iter().map(|(s, r, _)| (s.as_slice(), r.as_slice())));
    check_bodies(&live, &spec, &phases, &mut out);
    let sat_json: Vec<String> = rounds
        .iter()
        .enumerate()
        .map(|(i, r)| r.2.json(&format!("round{i}")))
        .collect();
    out.info.push(format!(
        "detail {{{},{},\"saturation\":{{{}}},\"max_qps\":{sat_qps},\"saturation_p50_ms\":{sat_p50},\
         \"setups\":{},\"connections\":{}}}",
        low.json("low"),
        high.json("high"),
        sat_json.join(","),
        setups.len(),
        live.clients.len(),
    ));
    out.metric("setup_s", median(&setups));
    out.metric("peak_rss_mb", crate::host::peak_rss_mb());
    out.metric("work_per_s", sat_qps);
    out.metric("p50_ms", sat_p50);
    stop(live);
    out
}

fn stop(live: Live) {
    let Live {
        server, clients, ..
    } = live;
    // Close the connections first: a worker leaves its connection only
    // when the client does.
    drop(clients);
    server.shutdown();
}

/// The traced run: the low phase untraced and traced (the difference is
/// the tracing overhead), the high phase traced for the registry counts,
/// then each per-request layer timed through its public function.
fn traced(
    spec: &Spec,
    live: &mut Live,
    low_sched: &[Arrival],
    high_sched: &[Arrival],
    give_up: Duration,
    out: &mut Outcome,
) {
    use apots_obs::metrics as m;
    let (plain_recs, plain) = phase(live, spec.low, low_sched, give_up, false);
    apots_obs::enable(None);
    let (low_recs, low) = phase(live, spec.low, low_sched, give_up, false);
    let server_low = m::HIST_SERVE_LATENCY_NS.snapshot();
    apots_obs::enable(None);
    let (high_recs, high) = phase(live, spec.high, high_sched, give_up, false);
    let server_high = m::HIST_SERVE_LATENCY_NS.snapshot();
    let requests = m::SERVE_REQUESTS.get().max(1) as f64;
    let batches = m::SERVE_BATCHES.get().max(1) as f64;
    let predictions = m::SERVE_PREDICTIONS.get() as f64;
    let qmatmul = m::KERNEL_QMATMUL.get() as f64;
    let quantize = m::KERNEL_QUANTIZE.get() as f64;
    apots_obs::disable();
    check_bodies(
        live,
        spec,
        &[
            (low_sched, &plain_recs),
            (low_sched, &low_recs),
            (high_sched, &high_recs),
        ],
        out,
    );

    let layer = layers(spec, live);
    let components = layer.parse + layer.features + layer.encode + layer.fwd_b1 + layer.format;
    let server_mean_high_us = server_high.sum as f64 / server_high.count.max(1) as f64 / 1e3;
    out.metric("obs.trace_overhead", low.p50_ms / plain.p50_ms - 1.0);
    out.metric("coverage", components * 1e3 / plain.p50_ms);
    out.metric("serve.http_parse_us", layer.parse * 1e6);
    out.metric("serve.response_format_us", layer.format * 1e6);
    out.metric("traffic.features_for_road_us", layer.features * 1e6);
    out.metric("core.encode_features_us", layer.encode * 1e6);
    out.metric("core.predictor_fwd_infer_us.b1", layer.fwd_b1 * 1e6);
    out.metric("core.predictor_fwd_infer_us.b2", layer.fwd_b2 * 1e6);
    out.metric("serve.server_p50_us", server_low.p50 as f64 / 1e3);
    out.metric("serve.server_p99_us", server_low.p99 as f64 / 1e3);
    out.metric(
        "serve.outside_server_us",
        low.p50_ms * 1e3 - server_low.p50 as f64 / 1e3,
    );
    out.metric("serve.batch_size_mean", predictions / batches);
    out.metric(
        "serve.queue_wait_us",
        server_mean_high_us - components * 1e6,
    );
    out.metric("serve.generator_late_ms_p99", high.late_p99_ms);
    out.metric("tensor.kernel_calls.qmatmul", qmatmul / requests);
    out.metric("tensor.kernel_calls.quantize", quantize / requests);
    out.info.push(format!(
        "detail {{{},{},{},\"server_mean_high_us\":{server_mean_high_us}}}",
        plain.json("low_untraced"),
        low.json("low_traced"),
        high.json("high_traced"),
    ));
}

/// Seconds per call of each public function a request passes through.
struct Layers {
    parse: f64,
    format: f64,
    features: f64,
    encode: f64,
    fwd_b1: f64,
    fwd_b2: f64,
}

fn layers(spec: &Spec, live: &Live) -> Layers {
    let slice = Duration::from_millis(200);
    let data = &live.data;
    let beta = data.config().beta;
    let keys = poisson(1e6, 1.0, space(data), 0xFEA7);
    let head = format!(
        "GET /predict?road={}&t={} HTTP/1.1\r\nHost: perfbench\r\n\r\n",
        keys[0].road, keys[0].tau
    );
    let parse = per_call(slice, || {
        let r = Request::parse(black_box(&head)).expect("well-formed head");
        black_box((r.param_usize("road").ok(), r.param_usize("t").ok()));
    });
    let mut resp = ResponseBuf::default();
    let format = per_call(slice, || {
        let _ = write!(
            resp.body_mut(),
            "{{\"road\":3,\"t\":1200,\"speed_kmh\":{}}}",
            black_box(71.25f32)
        );
        black_box(resp.finish(200).len());
    });
    let n_roads = data.corridor().n_roads();
    let alpha = data.config().alpha;
    let mut feats = vec![SampleFeatures::zeroed(n_roads, alpha, 0); 2];
    let mut k = 0;
    let features = per_call(slice, || {
        k = (k + 1) % keys.len();
        data.features_for_road_into(keys[k].road, keys[k].tau - beta, MASK, &mut feats[0]);
    });
    data.features_for_road_into(keys[1].road, keys[1].tau - beta, MASK, &mut feats[1]);
    let encode = per_call(slice, || {
        black_box(encode_features(spec.kind, &feats[..1]));
    });
    let mut replica = live
        .checkpoint
        .restore(spec.preset, data)
        .expect("checkpoint restores into its own architecture");
    replica.prepare(spec.mode);
    let (b1, _) = encode_features(spec.kind, &feats[..1]);
    let (b2, _) = encode_features(spec.kind, &feats[..2]);
    let fwd_b1 = per_call(slice, || {
        black_box(replica.forward_infer(&b1, spec.mode));
    });
    let fwd_b2 = per_call(slice, || {
        black_box(replica.forward_infer(&b2, spec.mode));
    });
    Layers {
        parse,
        format,
        features,
        encode,
        fwd_b1,
        fwd_b2,
    }
}
