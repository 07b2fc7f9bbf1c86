//! **Serve load** — the `apots-serve` load generator: seeded query
//! storms replayed against an in-process server over real sockets,
//! emitting `BENCH_serve.json` with p50/p99 request latency, sustained
//! QPS, and a deterministic checksum over every response body.
//!
//! Two storms run back-to-back, one at `APOTS_THREADS=1` and one at 4,
//! each replaying the *same* 50 000-request seeded storm over 8
//! keep-alive connections. The `response_fnv32` field is the FNV-1a of
//! all responses in query order: the serving path is deterministic
//! (DESIGN.md §9 + §14), so both storms — and every machine — must
//! produce the same checksum, and `bench-gate` pins it **exactly**
//! alongside the exact request/error counts. Latency and QPS move with
//! the host and get wide (< 0.5) tolerances.
//!
//! A third pair of storms drives the quant comparison (DESIGN.md §15):
//! the Paper-preset FC model at `--quant off` vs `--quant int8`, same
//! seeded storm, 0 errors required, with the int8 lane expected to
//! sustain ≥ 1.3× the off-lane QPS (asserted in measure mode). Each
//! lane's `response_fnv32` is pinned exactly — the int8 lane is
//! deterministic too, just on a different (bounded-error) lattice.
//!
//! Invocation follows the other bench targets: `cargo bench -p
//! apots-bench --bench serve_load` writes the JSON; `--test` (smoke
//! mode) runs the same storms but only writes when
//! `APOTS_BENCH_SMOKE_EMIT=1`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use apots::checkpoint::Checkpoint;
use apots::config::{HyperPreset, PredictorKind};
use apots::predictor::build_predictor;
use apots::InferenceMode;
use apots_serde::atomic::Fnv1a;
use apots_serve::{ServeConfig, Server};
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, SimConfig, TrafficDataset};

const STORM_REQUESTS: usize = 50_000;
const CONNECTIONS: usize = 8;
const WARMUP_REQUESTS: usize = 1_000;
const STORM_SEED: u64 = 0x5EED_5702;
/// The quant comparison replays a smaller storm against the
/// compute-dominated Paper-preset FC model, once per inference lane.
const QUANT_STORM_REQUESTS: usize = 8_000;
/// Acceptance bar: the int8 lane must sustain at least this multiple of
/// the `--quant off` QPS on the Paper-preset storm (checked in measure
/// mode; smoke runs only report the ratio).
const QUANT_MIN_SPEEDUP: f64 = 1.3;

fn dataset() -> Arc<TrafficDataset> {
    let cal = Calendar::new(8, 6, vec![]);
    Arc::new(TrafficDataset::new(
        Corridor::generate_with_calendar(SimConfig::default(), cal),
        DataConfig::default(),
    ))
}

/// Seeded splitmix64 (road, τ) storm over the valid query range.
fn storm(data: &TrafficDataset, n: usize, seed: u64) -> Vec<(usize, usize)> {
    let lo = data.config().alpha + data.config().beta;
    let hi = data.corridor().intervals();
    let roads = data.corridor().n_roads();
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z
    };
    (0..n)
        .map(|_| {
            let road = (next() % roads as u64) as usize;
            let tau = lo + (next() % (hi - lo) as u64) as usize;
            (road, tau)
        })
        .collect()
}

/// One keep-alive connection issuing `GET` requests and framing
/// responses by `Content-Length`.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("serve_load: connect");
        stream.set_nodelay(true).unwrap();
        Client {
            stream,
            buf: Vec::with_capacity(1024),
        }
    }

    fn get(&mut self, path: &str) -> (u16, String) {
        write!(self.stream, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").expect("write");
        self.buf.clear();
        let mut chunk = [0u8; 1024];
        loop {
            if let Some(resp) = parse_response(&self.buf) {
                return resp;
            }
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "serve_load: server closed mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn parse_response(buf: &[u8]) -> Option<(u16, String)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))?
        .trim()
        .parse()
        .ok()?;
    if buf.len() < head_end + len {
        return None;
    }
    Some((
        status,
        String::from_utf8(buf[head_end..head_end + len].to_vec()).ok()?,
    ))
}

struct StormResult {
    name: String,
    requests: usize,
    errors: usize,
    elapsed_ns: u128,
    /// Sorted per-request latencies, ns.
    latencies: Vec<u64>,
    /// FNV-1a over every response body in query order, folded to 32
    /// bits so the checksum survives the JSON f64 round-trip exactly.
    response_fnv32: u32,
}

impl StormResult {
    fn percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let idx = ((self.latencies.len() - 1) as f64 * p).round() as usize;
        self.latencies[idx]
    }

    fn qps(&self) -> f64 {
        self.requests as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// Replays `queries` over [`CONNECTIONS`] keep-alive connections,
/// timing each request. Queries are dealt round-robin so the storm's
/// composition per connection is deterministic.
fn run_storm(addr: SocketAddr, queries: &[(usize, usize)], name: &str) -> StormResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..CONNECTIONS)
        .map(|i| {
            let chunk: Vec<(usize, usize)> = queries
                .iter()
                .skip(i)
                .step_by(CONNECTIONS)
                .copied()
                .collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut latencies = Vec::with_capacity(chunk.len());
                let mut errors = 0usize;
                // (query index, body) so the checksum can be ordered.
                let mut bodies = Vec::with_capacity(chunk.len());
                for (k, (road, tau)) in chunk.into_iter().enumerate() {
                    let t0 = Instant::now();
                    let (status, body) = client.get(&format!("/predict?road={road}&t={tau}"));
                    latencies.push(t0.elapsed().as_nanos() as u64);
                    if status != 200 {
                        errors += 1;
                    }
                    bodies.push((k * CONNECTIONS + i, body));
                }
                (latencies, errors, bodies)
            })
        })
        .collect();

    let mut latencies = Vec::with_capacity(queries.len());
    let mut errors = 0;
    let mut bodies: Vec<(usize, String)> = Vec::with_capacity(queries.len());
    for h in handles {
        let (l, e, b) = h.join().expect("serve_load: client thread");
        latencies.extend(l);
        errors += e;
        bodies.extend(b);
    }
    let elapsed_ns = started.elapsed().as_nanos();
    bodies.sort_by_key(|(i, _)| *i);
    let mut h = Fnv1a::new();
    for (_, body) in &bodies {
        h.write(body.as_bytes());
    }
    let fnv = h.finish();
    latencies.sort_unstable();
    StormResult {
        name: name.to_string(),
        requests: queries.len(),
        errors,
        elapsed_ns,
        latencies,
        response_fnv32: (fnv ^ (fnv >> 32)) as u32,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let emit = !smoke
        || matches!(
            std::env::var("APOTS_BENCH_SMOKE_EMIT").as_deref(),
            Ok("1") | Ok("true")
        );

    let data = dataset();
    let mut boot = build_predictor(PredictorKind::Fc, HyperPreset::Fast, &data, 42);
    let checkpoint = Checkpoint::capture(boot.as_mut());
    drop(boot);
    let queries = storm(&data, STORM_REQUESTS, STORM_SEED);
    let warmup = storm(&data, WARMUP_REQUESTS, STORM_SEED ^ 1);

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        apots_par::set_threads(threads);
        let server = Server::start(
            ServeConfig::default(),
            data.clone(),
            checkpoint.clone(),
            None,
        )
        .expect("serve_load: server start");
        let addr = server.addr();
        run_storm(addr, &warmup, "warmup");
        let result = run_storm(addr, &queries, &format!("serve_storm_50k_threads{threads}"));
        server.shutdown();
        assert_eq!(result.errors, 0, "serve_load: non-200 responses in storm");
        runs.push(result);
    }
    apots_par::reset_threads();

    assert_eq!(
        runs[0].response_fnv32, runs[1].response_fnv32,
        "serve_load: responses differ across APOTS_THREADS — determinism broken"
    );

    // ── Quant comparison ────────────────────────────────────────────
    // Same storm, Paper-preset FC model (compute-dominated, so kernel
    // speed shows through the socket path), `--quant off` vs int8.
    let mut paper_boot = build_predictor(PredictorKind::Fc, HyperPreset::Paper, &data, 42);
    let paper_checkpoint = Checkpoint::capture(paper_boot.as_mut());
    drop(paper_boot);
    let quant_queries = storm(&data, QUANT_STORM_REQUESTS, STORM_SEED ^ 2);
    let quant_warmup = storm(&data, WARMUP_REQUESTS, STORM_SEED ^ 3);
    apots_par::set_threads(4);
    for (mode, name) in [
        (InferenceMode::Exact, "serve_storm_paper_quant_off"),
        (InferenceMode::Int8, "serve_storm_paper_int8"),
    ] {
        let server = Server::start(
            ServeConfig {
                preset: HyperPreset::Paper,
                quant: mode,
                ..ServeConfig::default()
            },
            data.clone(),
            paper_checkpoint.clone(),
            None,
        )
        .expect("serve_load: paper server start");
        let addr = server.addr();
        run_storm(addr, &quant_warmup, "warmup");
        let result = run_storm(addr, &quant_queries, name);
        server.shutdown();
        assert_eq!(result.errors, 0, "serve_load: non-200 responses in {name}");
        runs.push(result);
    }
    apots_par::reset_threads();

    let off_qps = runs[runs.len() - 2].qps();
    let int8_qps = runs[runs.len() - 1].qps();
    let speedup = int8_qps / off_qps;
    println!("quant storm speedup: int8 {int8_qps:.0} qps / off {off_qps:.0} qps = {speedup:.2}x");
    if !smoke {
        assert!(
            speedup >= QUANT_MIN_SPEEDUP,
            "serve_load: int8 lane sustained only {speedup:.2}x the --quant off QPS \
             (acceptance bar {QUANT_MIN_SPEEDUP}x)"
        );
    }

    for r in &runs {
        println!(
            "{:<26} {} req  p50 {:>7} ns  p99 {:>8} ns  {:>8.0} qps  fnv32 {:#010x}",
            r.name,
            r.requests,
            r.percentile(0.50),
            r.percentile(0.99),
            r.qps(),
            r.response_fnv32,
        );
    }

    if emit {
        let dir = std::env::var("APOTS_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = format!("{dir}/BENCH_serve.json");
        let mut root = apots_serde::Map::new();
        root.insert("target".into(), apots_serde::Json::from("serve_load"));
        root.insert(
            "mode".into(),
            apots_serde::Json::from(if smoke { "smoke" } else { "measure" }),
        );
        root.insert(
            "connections".into(),
            apots_serde::Json::from(CONNECTIONS as f64),
        );
        root.insert(
            "runs".into(),
            apots_serde::Json::Arr(
                runs.iter()
                    .map(|r| {
                        apots_serde::json!({
                            "name": r.name.as_str(),
                            "requests": r.requests as f64,
                            "errors": r.errors as f64,
                            "p50_ns": r.percentile(0.50) as f64,
                            "p99_ns": r.percentile(0.99) as f64,
                            "qps": r.qps(),
                            "response_fnv32": r.response_fnv32 as f64
                        })
                    })
                    .collect(),
            ),
        );
        let doc = apots_serde::Json::Obj(root);
        match std::fs::write(&path, doc.to_string_pretty() + "\n") {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("serve_load: could not write {path}: {e}"),
        }
    } else {
        println!("test serve_load ... ok (smoke)");
    }
}
