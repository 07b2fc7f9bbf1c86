//! End-to-end serving contract tests: real sockets, real worker pool,
//! real snapshot swaps.
//!
//! These pin the acceptance criteria of DESIGN.md §14:
//! * responses are bit-identical across `APOTS_THREADS ∈ {1, 4}` and
//!   across a mid-storm hot-swap to an identical checkpoint;
//! * a hot-swap to a torn/corrupt checkpoint keeps serving the old
//!   snapshot (never a 500 with garbage), including with the
//!   deterministic fault plane armed (`APOTS_FAULTS` semantics);
//! * a checkpoint holding NaN/±inf is refused with a structured error,
//!   at boot and on reload;
//! * query validation 400s instead of clamping or panicking, and a
//!   non-GET method 405s;
//! * keep-alive framing: pipelined requests are all answered in order,
//!   and a request that declares a body is answered, then the
//!   connection is closed;
//! * `/metrics` carries every `serve.*` metric and says whether
//!   telemetry is counting them.
//!
//! The process-global knobs touched here (fault backend, thread pool,
//! telemetry) force every test in this binary through one lock.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use apots::checkpoint::Checkpoint;
use apots::config::{HyperPreset, PredictorKind};
use apots::persist::CheckpointStore;
use apots::predictor::build_predictor;
use apots::InferenceMode;
use apots_nn::StateDict;
use apots_serde::Json;
use apots_serve::{ServeConfig, Server};
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, SimConfig, TrafficDataset};

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn dataset() -> Arc<TrafficDataset> {
    let cal = Calendar::new(8, 6, vec![]);
    Arc::new(TrafficDataset::new(
        Corridor::generate_with_calendar(SimConfig::default(), cal),
        DataConfig::default(),
    ))
}

fn checkpoint(data: &TrafficDataset, kind: PredictorKind, seed: u64) -> Checkpoint {
    let mut p = build_predictor(kind, HyperPreset::Fast, data, seed);
    Checkpoint::capture(p.as_mut())
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("apots-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A keep-alive HTTP client for one connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        Client {
            stream,
            buf: Vec::with_capacity(1024),
        }
    }

    /// Issues `GET path` and returns `(status, body)`.
    fn get(&mut self, path: &str) -> (u16, String) {
        self.request("GET", path)
    }

    /// Sends a body-less `method path` request; returns `(status, body)`.
    fn request(&mut self, method: &str, path: &str) -> (u16, String) {
        write!(
            self.stream,
            "{method} {path} HTTP/1.1\r\nHost: test\r\n\r\n"
        )
        .expect("write");
        self.buf.clear();
        let mut chunk = [0u8; 1024];
        loop {
            if let Some((status, body)) = parse_response(&self.buf) {
                return (status, body);
            }
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Parses a complete `Content-Length`-framed response, if fully buffered.
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
    let body = String::from_utf8(buf[head_end..head_end + len].to_vec()).ok()?;
    Some((status, body))
}

/// The seeded storm: every (road, τ) drawn from the valid range with a
/// fixed splitmix stream, shared by every determinism test.
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
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let road = (next() % roads as u64) as usize;
            let tau = lo + (next() % (hi - lo) as u64) as usize;
            (road, tau)
        })
        .collect()
}

/// Runs `queries` through `threads` concurrent keep-alive connections;
/// returns every response keyed by (road, τ).
fn run_storm(
    addr: SocketAddr,
    queries: &[(usize, usize)],
    threads: usize,
) -> BTreeMap<(usize, usize), (u16, String)> {
    let chunks: Vec<Vec<(usize, usize)>> = (0..threads)
        .map(|i| {
            queries
                .iter()
                .skip(i)
                .step_by(threads)
                .copied()
                .collect::<Vec<_>>()
        })
        .collect();
    let handles: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                chunk
                    .into_iter()
                    .map(|(road, tau)| {
                        let resp = client.get(&format!("/predict?road={road}&t={tau}"));
                        ((road, tau), resp)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut out = BTreeMap::new();
    for h in handles {
        for (k, v) in h.join().expect("client thread") {
            out.insert(k, v);
        }
    }
    out
}

fn start_server(
    data: &Arc<TrafficDataset>,
    ck: Checkpoint,
    store: Option<CheckpointStore>,
) -> Server {
    Server::start(ServeConfig::default(), data.clone(), ck, store).expect("server start")
}

#[test]
fn serves_predictions_healthz_metrics_and_rejects_bad_queries() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let server = start_server(&data, checkpoint(&data, PredictorKind::Fc, 42), None);
    let mut c = Client::connect(server.addr());

    let alpha = data.config().alpha;
    let beta = data.config().beta;
    let tau = alpha + beta + 17;
    let (status, body) = c.get(&format!("/predict?road=1&t={tau}"));
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("{\"road\":1,"), "{body}");
    let speed: f64 = body
        .split("\"speed_kmh\":")
        .nth(1)
        .unwrap()
        .trim_end_matches('}')
        .parse()
        .unwrap();
    // The boot model is untrained, so only finiteness is meaningful here.
    assert!(speed.is_finite(), "non-finite speed {speed}");

    let (status, body) = c.get("/healthz");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"ok\":true") && body.contains("\"version\":1"),
        "{body}"
    );

    let (status, body) = c.get("/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("\"version\":1"), "{body}");

    // Validation: out-of-range τ (too early, too late), bad road, junk,
    // and a valid query under a method other than GET.
    for (method, bad, want) in [
        (
            "GET",
            format!("/predict?road=0&t={}", alpha + beta - 1),
            400,
        ),
        (
            "GET",
            format!("/predict?road=0&t={}", data.corridor().intervals()),
            400,
        ),
        ("GET", format!("/predict?road=99&t={tau}"), 400),
        ("GET", "/predict?road=0".to_string(), 400),
        ("GET", "/predict?road=zero&t=40".to_string(), 400),
        ("POST", format!("/predict?road=1&t={tau}"), 405),
    ] {
        let (status, body) = c.request(method, &bad);
        assert_eq!(status, want, "{method} {bad} -> {body}");
        assert!(body.contains("error"), "{body}");
    }
    let (status, _) = c.get("/nope");
    assert_eq!(status, 404);

    server.shutdown();
}

/// The metrics count only while telemetry is on (`apots serve --trace`),
/// so `/metrics` says which: off, a 200 `/predict` leaves `predictions`
/// at 0; on, it counts. Either way the body is strict JSON carrying
/// every registered `serve.*` metric ahead of `quant` and `version`.
#[test]
fn metrics_say_whether_telemetry_is_counting() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let server = start_server(&data, checkpoint(&data, PredictorKind::Fc, 42), None);
    let mut c = Client::connect(server.addr());
    let tau = data.config().alpha + data.config().beta + 17;
    for on in [false, true] {
        // A fresh session zeroes every metric.
        apots_obs::enable(None);
        if !on {
            apots_obs::disable();
        }
        let (status, body) = c.get(&format!("/predict?road=1&t={tau}"));
        assert_eq!(status, 200, "{body}");
        let (status, body) = c.get("/metrics");
        assert_eq!(status, 200, "{body}");
        let m = Json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
        assert_eq!(
            m.get("telemetry").and_then(Json::as_bool),
            Some(on),
            "{body}"
        );
        let predictions = m.get("predictions").and_then(Json::as_f64);
        assert_eq!(predictions, Some(if on { 1.0 } else { 0.0 }), "{body}");
        for metric in apots_obs::metrics::REGISTRY {
            if let Some(key) = metric.name().strip_prefix("serve.") {
                assert!(m.get(key).is_some(), "no {key:?} in {body}");
            }
        }
        let keys: Vec<&str> = m.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys[keys.len() - 2..], ["quant", "version"], "{body}");
    }
    apots_obs::disable();
    server.shutdown();
}

#[test]
fn responses_are_bit_identical_across_thread_counts() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let ck = checkpoint(&data, PredictorKind::Hybrid, 7);
    let queries = storm(&data, 192, 0xC0FFEE);

    apots_par::set_threads(1);
    let server = start_server(&data, ck.clone(), None);
    let t1 = run_storm(server.addr(), &queries, 4);
    server.shutdown();

    apots_par::set_threads(4);
    let server = start_server(&data, ck, None);
    let t4 = run_storm(server.addr(), &queries, 4);
    server.shutdown();
    apots_par::reset_threads();

    assert_eq!(
        t1.len(),
        queries
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );
    for (k, v1) in &t1 {
        assert_eq!(v1.0, 200, "{k:?} {}", v1.1);
        let v4 = &t4[k];
        assert_eq!(v1, v4, "response for {k:?} depends on APOTS_THREADS");
    }
}

#[test]
fn mid_storm_swap_to_identical_checkpoint_changes_nothing() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let ck = checkpoint(&data, PredictorKind::Fc, 99);
    let dir = tmp_dir("identical-swap");
    let store = CheckpointStore::open(&dir).unwrap();
    store.save(Json::parse(&ck.to_json()).unwrap()).unwrap();

    // Reference run: no swap at all.
    let server = start_server(&data, ck.clone(), None);
    let queries = storm(&data, 128, 0xB1F);
    let reference = run_storm(server.addr(), &queries, 4);
    server.shutdown();

    // Swap run: half the storm, a hot-swap to the identical checkpoint,
    // the other half; every response must match the reference bytes.
    let server = Server::start(
        ServeConfig::default(),
        data.clone(),
        ck.clone(),
        Some(CheckpointStore::open(&dir).unwrap()),
    )
    .unwrap();
    let (first, second) = queries.split_at(queries.len() / 2);
    let mut got = run_storm(server.addr(), first, 4);
    let swapped = server.reload_now().expect("reload");
    assert!(!swapped, "identical checkpoint must be a no-op swap");
    assert_eq!(server.version(), 1);
    got.extend(run_storm(server.addr(), second, 4));
    server.shutdown();

    assert_eq!(
        got, reference,
        "mid-storm identical-checkpoint swap changed bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swap_to_new_checkpoint_applies_and_old_readers_finish() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let ck_a = checkpoint(&data, PredictorKind::Fc, 1);
    let ck_b = checkpoint(&data, PredictorKind::Fc, 2);
    let dir = tmp_dir("real-swap");
    let store = CheckpointStore::open(&dir).unwrap();

    let server = Server::start(
        ServeConfig::default(),
        data.clone(),
        ck_a,
        Some(CheckpointStore::open(&dir).unwrap()),
    )
    .unwrap();
    let tau = data.config().alpha + data.config().beta + 30;
    let mut c = Client::connect(server.addr());
    let before = c.get(&format!("/predict?road=2&t={tau}"));

    store.save(Json::parse(&ck_b.to_json()).unwrap()).unwrap();
    assert!(server.reload_now().unwrap(), "new checkpoint must swap in");
    assert_eq!(server.version(), 2);
    let after = c.get(&format!("/predict?road=2&t={tau}"));
    assert_eq!(after.0, 200);
    assert_ne!(
        before.1, after.1,
        "differently-initialized params should answer differently"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_is_rejected_and_old_snapshot_keeps_serving() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let ck = checkpoint(&data, PredictorKind::Lstm, 5);
    let dir = tmp_dir("corrupt-swap");
    let store = CheckpointStore::open(&dir).unwrap();
    store.save(Json::parse(&ck.to_json()).unwrap()).unwrap();

    let server = Server::start(
        ServeConfig::default(),
        data.clone(),
        ck,
        Some(CheckpointStore::open(&dir).unwrap()),
    )
    .unwrap();
    let tau = data.config().alpha + data.config().beta + 11;
    let mut c = Client::connect(server.addr());
    let before = c.get(&format!("/predict?road=3&t={tau}"));
    assert_eq!(before.0, 200);

    // Tear latest mid-document AND corrupt prev: the rotation has no
    // clean generation left, exactly the mid-rotation crash a hot
    // loader must survive. Arm the deterministic fault plane on top so
    // the probe/read path also sees transient EIO (APOTS_FAULTS
    // semantics: the bounded retry policy absorbs what it can).
    let latest = store.latest_path();
    let text = std::fs::read_to_string(&latest).unwrap();
    std::fs::write(&latest, &text[..text.len() / 3]).unwrap();
    if store.prev_path().exists() {
        std::fs::write(store.prev_path(), "{torn").unwrap();
    }
    let fault = apots_faults::arm(apots_faults::FaultSpec::parse("seed=11,eio=0.05").unwrap());
    let reload = server.reload_now();
    apots_faults::disarm();
    assert!(reload.is_err(), "corrupt store must be a rejected swap");
    assert_eq!(server.version(), 1, "old snapshot must stay published");
    drop(fault);

    // The old snapshot keeps answering, bit-identically.
    let after = c.get(&format!("/predict?road=3&t={tau}"));
    assert_eq!(after, before, "corrupt swap must not change answers");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/metrics`' count of rejected hot-swaps.
fn swaps_rejected(c: &mut Client) -> u64 {
    let (status, body) = c.get("/metrics");
    assert_eq!(status, 200, "{body}");
    body.split("\"swaps_rejected\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no swaps_rejected in {body}"))
}

#[test]
fn non_finite_checkpoint_is_refused_at_boot_and_on_reload() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let ck = checkpoint(&data, PredictorKind::Fc, 8);

    // Boot: a NaN or ±inf weight is a structured error, not a panic.
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut tensors = ck.state.clone().into_tensors();
        tensors[0].data_mut()[3] = bad;
        let poisoned = Checkpoint {
            kind: ck.kind.clone(),
            state: StateDict::from_tensors(tensors),
        };
        match Server::start(ServeConfig::default(), data.clone(), poisoned, None) {
            Ok(server) => {
                server.shutdown();
                panic!("booted a checkpoint holding {bad}");
            }
            Err(e) => assert!(
                e.starts_with("boot checkpoint: tensor 0: element 3 is "),
                "{e}"
            ),
        }
    }

    // Reload: a stored number beyond the f32 range would narrow to inf.
    // Counters count only while telemetry is on. The watcher never polls
    // on its own here, so the rejection count moves only through
    // reload_now.
    apots_obs::enable(None);
    let dir = tmp_dir("non-finite-swap");
    let store = CheckpointStore::open(&dir).unwrap();
    let cfg = ServeConfig {
        poll_interval: Duration::from_secs(3600),
        ..ServeConfig::default()
    };
    let server = Server::start(
        cfg,
        data.clone(),
        ck.clone(),
        Some(CheckpointStore::open(&dir).unwrap()),
    )
    .unwrap();
    let tau = data.config().alpha + data.config().beta + 23;
    let mut c = Client::connect(server.addr());
    let before = c.get(&format!("/predict?road=4&t={tau}"));
    assert_eq!(before.0, 200);
    let rejected = swaps_rejected(&mut c);

    // Replace the first element of the first tensor with 1e39.
    let text = ck.to_json();
    let first = text.find("\"data\":[").unwrap() + "\"data\":[".len();
    let end = first + text[first..].find(',').unwrap();
    let overflowing = format!("{}1e39{}", &text[..first], &text[end..]);
    store.save(Json::parse(&overflowing).unwrap()).unwrap();
    let err = server.reload_now().unwrap_err();
    assert!(
        err.contains("tensor 0: element 0 (1e39) is not finite as f32"),
        "{err}"
    );
    assert_eq!(swaps_rejected(&mut c), rejected + 1);
    assert_eq!(server.version(), 1, "old snapshot must stay published");
    let after = c.get(&format!("/predict?road=4&t={tau}"));
    assert_eq!(after, before, "a refused swap must not change answers");
    server.shutdown();
    apots_obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn int8_serving_is_deterministic_and_close_to_exact() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let ck = checkpoint(&data, PredictorKind::Hybrid, 31);
    let queries = storm(&data, 128, 0x1A78);
    let quant_cfg = || ServeConfig {
        quant: InferenceMode::Int8,
        ..ServeConfig::default()
    };

    // Exact reference for the same storm.
    let server = start_server(&data, ck.clone(), None);
    let exact = run_storm(server.addr(), &queries, 4);
    server.shutdown();

    // Int8 at 1 thread and 4 threads: bit-identical to each other.
    apots_par::set_threads(1);
    let server = Server::start(quant_cfg(), data.clone(), ck.clone(), None).unwrap();
    let q1 = run_storm(server.addr(), &queries, 4);
    server.shutdown();
    apots_par::set_threads(4);
    let server = Server::start(quant_cfg(), data.clone(), ck, None).unwrap();
    let q4 = run_storm(server.addr(), &queries, 4);
    server.shutdown();
    apots_par::reset_threads();

    let speed = |body: &str| -> f64 {
        body.split("\"speed_kmh\":")
            .nth(1)
            .unwrap()
            .trim_end_matches('}')
            .parse()
            .unwrap()
    };
    for (k, v1) in &q1 {
        assert_eq!(v1.0, 200, "{k:?} {}", v1.1);
        assert_eq!(
            v1, &q4[k],
            "int8 response for {k:?} depends on APOTS_THREADS"
        );
        // Quantized answers track the exact lane within the km/h-scale
        // bound of DESIGN.md §15 (untrained Fast model, small outputs).
        let d = (speed(&v1.1) - speed(&exact[k].1)).abs();
        assert!(d < 2.0, "{k:?}: int8 {} vs exact {}", v1.1, exact[k].1);
    }
}

#[test]
fn batch_composition_does_not_change_answers() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let ck = checkpoint(&data, PredictorKind::Cnn, 23);
    let queries = storm(&data, 96, 0x5EED);

    // More clients than workers, all at once, vs. one client at a time:
    // identical bytes either way.
    let server = start_server(&data, ck.clone(), None);
    let concurrent = run_storm(server.addr(), &queries, 8);
    server.shutdown();

    let server = start_server(&data, ck, None);
    let sequential = run_storm(server.addr(), &queries, 1);
    server.shutdown();

    assert_eq!(concurrent, sequential, "concurrency must be invisible");
}

/// Reads `n` `Content-Length`-framed responses off `stream` in order;
/// returns each `(status, head, body)`.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<(u16, String, String)> {
    let mut buf = Vec::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 1024];
    while out.len() < n {
        if let Some((status, body)) = parse_response(&buf) {
            let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
            buf.drain(..head_end + body.len());
            out.push((status, head, body));
            continue;
        }
        let got = stream.read(&mut chunk).expect("read (timed out?)");
        assert!(got > 0, "server closed after {} responses", out.len());
        buf.extend_from_slice(&chunk[..got]);
    }
    assert!(buf.is_empty(), "unexpected bytes after the responses");
    out
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let server = start_server(&data, checkpoint(&data, PredictorKind::Fc, 12), None);
    let tau = data.config().alpha + data.config().beta + 5;
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Two GETs in one write, then a third once both are answered: the
    // connection stays usable.
    let get = |road: usize| format!("GET /predict?road={road}&t={tau} HTTP/1.1\r\nHost: t\r\n\r\n");
    stream
        .write_all(format!("{}{}", get(1), get(2)).as_bytes())
        .unwrap();
    let answers = read_responses(&mut stream, 2);
    stream.write_all(get(3).as_bytes()).unwrap();
    let third = read_responses(&mut stream, 1);
    for ((status, head, body), road) in answers.iter().chain(&third).zip([1, 2, 3]) {
        assert_eq!(*status, 200, "{body}");
        assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
        assert!(body.starts_with(&format!("{{\"road\":{road},")), "{body}");
    }
    server.shutdown();
}

#[test]
fn a_request_with_a_body_is_answered_then_closed() {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let server = start_server(&data, checkpoint(&data, PredictorKind::Fc, 12), None);
    let tau = data.config().alpha + data.config().beta + 5;
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The head declares a 5-byte body that arrives only after the
    // answer: it must not be read as the next request's head.
    write!(
        stream,
        "POST /predict?road=1&t={tau} HTTP/1.1\r\nContent-Length: 5\r\n\r\n"
    )
    .unwrap();
    let (status, head, body) = read_responses(&mut stream, 1).remove(0);
    assert_eq!(status, 405, "{body}");
    assert!(head.contains("Connection: close\r\n"), "{head}");
    let _ = stream.write_all(b"hello");
    let mut rest = Vec::new();
    match stream.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "bytes after close: {rest:?}"),
        // A reset is as final as EOF; a timeout is the hang this pins.
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    // The server keeps answering other connections.
    let mut c = Client::connect(server.addr());
    assert_eq!(c.get(&format!("/predict?road=1&t={tau}")).0, 200);
    server.shutdown();
}
