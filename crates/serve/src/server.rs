//! The serving core: acceptor → connection workers, plus the checkpoint
//! watcher.
//!
//! Threading model (all `std::thread`, fixed at startup):
//!
//! * one **acceptor** pushes connections onto a queue;
//! * `workers` **connection workers** pop a connection each and speak
//!   keep-alive HTTP/1.1 over it — every endpoint is answered inline: a
//!   `/predict` builds its features into the worker's own buffer, encodes
//!   them and runs `forward_infer` on the published model, which every
//!   worker shares through `&self`. Per-sample forwards are batch-size
//!   and thread-count invariant (DESIGN.md §9), so which worker answers
//!   never changes any answer. A worker serving a loopback client moves
//!   to that client's CPU (`cpu.rs`);
//! * one **watcher** polls the [`CheckpointStore`] through the retrying
//!   fsio plane and atomically publishes verified new snapshots.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apots::checkpoint::Checkpoint;
use apots::config::HyperPreset;
use apots::encode::encode_features;
use apots::persist::CheckpointStore;
use apots::InferenceMode;
use apots_obs::metrics::{
    HIST_SERVE_LATENCY_NS, SERVE_BATCHES, SERVE_PREDICTIONS, SERVE_REQUESTS, SERVE_SWAPS,
    SERVE_SWAPS_REJECTED,
};
use apots_traffic::{FeatureMask, SampleFeatures, TrafficDataset};

use crate::cpu;
use crate::http::{declares_body, read_head, Request, ResponseBuf, METHOD_NOT_ALLOWED};
use crate::snapshot::{checkpoint_from_payload, ModelSnapshot, QuantizedSnapshot, SnapshotCell};

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Connection-worker threads; each answers its requests itself.
    pub workers: usize,
    /// Hyperparameter preset the checkpoint was trained under.
    pub preset: HyperPreset,
    /// Feature mask served to the model.
    pub mask: FeatureMask,
    /// Watcher poll cadence (also the shutdown latency bound).
    pub poll_interval: Duration,
    /// Inference lane the model serves on: `Exact` reproduces the
    /// training kernels bit-for-bit; `Int8` quantizes weights at
    /// snapshot-publish time (DESIGN.md §15).
    pub quant: InferenceMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            preset: HyperPreset::Fast,
            mask: FeatureMask::BOTH,
            poll_interval: Duration::from_millis(200),
            quant: InferenceMode::Exact,
        }
    }
}

/// Shared state every thread sees.
struct Shared {
    data: Arc<TrafficDataset>,
    cell: SnapshotCell,
    conns: Mutex<VecDeque<TcpStream>>,
    conns_cv: Condvar,
    stop_http: AtomicBool,
    stop_watcher: AtomicBool,
    cfg: ServeConfig,
}

/// A running server. Dropping without [`Server::shutdown`] leaks the
/// threads; call shutdown for a clean join.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    store: Option<Arc<CheckpointStore>>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boots the full thread set and starts serving `initial` at once.
    /// When `store` is given, the watcher hot-follows it.
    ///
    /// # Errors
    /// Returns an error if the checkpoint holds a NaN or ±inf, does not
    /// restore against `data` under the configured preset, or the
    /// listener cannot bind.
    pub fn start(
        cfg: ServeConfig,
        data: Arc<TrafficDataset>,
        initial: Checkpoint,
        store: Option<CheckpointStore>,
    ) -> Result<Server, String> {
        assert!(cfg.workers >= 1, "ServeConfig: workers >= 1");
        // Fail fast on a checkpoint that cannot serve: the boot model is
        // the one generation with no previous snapshot to fall back to.
        // Restoring and preparing it before binding a port means an int8
        // deployment also exercises quantization first.
        let snap = ModelSnapshot::new(initial, 1).map_err(|e| format!("boot checkpoint: {e}"))?;
        let boot = QuantizedSnapshot::new(snap, cfg.quant, cfg.preset, &data)
            .map_err(|e| format!("boot checkpoint: {e}"))?;
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;

        let shared = Arc::new(Shared {
            data,
            cell: SnapshotCell::new(boot),
            conns: Mutex::new(VecDeque::new()),
            conns_cv: Condvar::new(),
            stop_http: AtomicBool::new(false),
            stop_watcher: AtomicBool::new(false),
            cfg: cfg.clone(),
        });
        let store = store.map(Arc::new);

        let mut threads = Vec::new();
        {
            let s = shared.clone();
            threads.push(spawn_named("serve-accept", move || {
                acceptor_loop(&listener, &s)
            }));
        }
        for w in 0..cfg.workers {
            let s = shared.clone();
            threads.push(spawn_named(&format!("serve-worker-{w}"), move || {
                worker_loop(&s);
            }));
        }
        if let Some(st) = &store {
            let s = shared.clone();
            let st = st.clone();
            threads.push(spawn_named("serve-watch", move || watcher_loop(&s, &st)));
        }
        Ok(Server {
            addr,
            shared,
            store,
            threads,
        })
    }

    /// The bound address (use with `addr: "127.0.0.1:0"` to discover the
    /// chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current published snapshot generation.
    pub fn version(&self) -> u64 {
        self.shared.cell.load().version()
    }

    /// Synchronously polls the checkpoint store once, exactly as the
    /// watcher does. Returns whether a new snapshot was published —
    /// tests and operators get a deterministic swap point instead of
    /// racing the poll cadence.
    ///
    /// # Errors
    /// Returns the rejection reason when a candidate was found but
    /// refused (the previous snapshot keeps serving).
    pub fn reload_now(&self) -> Result<bool, String> {
        match &self.store {
            Some(st) => try_reload(&self.shared, st),
            None => Ok(false),
        }
    }

    /// Orderly shutdown: stop accepting, let the workers finish their
    /// current connections, stop the watcher, join everything.
    pub fn shutdown(mut self) {
        self.shared.stop_http.store(true, Ordering::Release);
        // Unblock the acceptor's blocking accept().
        let _ = TcpStream::connect(self.addr);
        self.shared.conns_cv.notify_all();
        // Workers exit once their current connection goes quiet; their
        // read timeouts bound the wait.
        self.shared.stop_watcher.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("spawn serve thread")
}

fn acceptor_loop(listener: &TcpListener, s: &Shared) {
    for conn in listener.incoming() {
        if s.stop_http.load(Ordering::Acquire) {
            break;
        }
        if let Ok(stream) = conn {
            let mut q = s.conns.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(stream);
            drop(q);
            s.conns_cv.notify_one();
        }
    }
}

fn next_conn(s: &Shared) -> Option<TcpStream> {
    let mut q = s.conns.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if let Some(c) = q.pop_front() {
            return Some(c);
        }
        if s.stop_http.load(Ordering::Acquire) {
            return None;
        }
        let (g, _) = s
            .conns_cv
            .wait_timeout(q, Duration::from_millis(100))
            .unwrap_or_else(|e| e.into_inner());
        q = g;
    }
}

/// Requests between two checks of where a connection's requests arrive.
const FOLLOW_EVERY: u32 = 16;

fn worker_loop(s: &Shared) {
    // Per-worker reusable state: one request in flight at a time, so one
    // read buffer, one feature buffer and one response buffer serve every
    // request this worker ever handles.
    let mut buf = Vec::with_capacity(1024);
    let mut feats = SampleFeatures::zeroed(s.data.corridor().n_roads(), s.data.config().alpha, 0);
    let mut resp = ResponseBuf::default();
    while let Some(mut stream) = next_conn(s) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let _ = stream.set_nodelay(true);
        // A loopback request arrives on the CPU its client sent it from.
        let local = stream.peer_addr().is_ok_and(|a| a.ip().is_loopback());
        let mut served = 0u32;
        buf.clear();
        'conn: loop {
            let head_len = loop {
                match read_head(&mut stream, &mut buf) {
                    Ok(Some(n)) => break n,
                    Ok(None) => break 'conn, // clean close
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if s.stop_http.load(Ordering::Acquire) {
                            break 'conn;
                        }
                    }
                    Err(_) => break 'conn,
                }
            };
            // Answer on the client's CPU (cpu.rs). A check is one
            // `getsockopt`, ~0.25 µs, so every 16th request keeps it near
            // 0.2 % of a `serve_light` request and still moves a misplaced
            // worker within 16 requests.
            if local && served.is_multiple_of(FOLLOW_EVERY) {
                cpu::follow(&stream);
            }
            served = served.wrapping_add(1);
            // Latency is head-parsed → response-flushed: inference and
            // the socket write count; idle keep-alive time between
            // requests does not.
            let t0 = Instant::now();
            let head = &buf[..head_len];
            // Only heads are read, so a request body would be taken for
            // the next head: answer it, then close the connection.
            let close = declares_body(head);
            let status = respond(s, head, &mut feats, &mut resp);
            let text = if close {
                resp.finish_close(status)
            } else {
                resp.finish(status)
            };
            let ok = stream.write_all(text.as_bytes()).is_ok();
            HIST_SERVE_LATENCY_NS.record(t0.elapsed().as_nanos() as u64);
            if !ok || close {
                break 'conn;
            }
            // Bytes past the head belong to the next (pipelined) request.
            buf.drain(..head_len);
        }
    }
}

/// Parses one request and stages the response body; returns the status.
fn respond(s: &Shared, head: &[u8], feats: &mut SampleFeatures, resp: &mut ResponseBuf) -> u16 {
    SERVE_REQUESTS.bump();
    let head = match std::str::from_utf8(head) {
        Ok(h) => h,
        Err(_) => {
            let body = resp.body_mut();
            let _ = write!(body, "{{\"error\":\"request is not UTF-8\"}}");
            return 400;
        }
    };
    let req = match Request::parse(head) {
        Ok(r) => r,
        Err(e) => {
            let body = resp.body_mut();
            let _ = write!(body, "{{\"error\":{:?}}}", e);
            return if e == METHOD_NOT_ALLOWED { 405 } else { 400 };
        }
    };
    match req.path {
        "/predict" => predict(s, &req, feats, resp),
        "/healthz" => {
            let snap = s.cell.load();
            let body = resp.body_mut();
            let _ = write!(
                body,
                "{{\"ok\":true,\"version\":{},\"fingerprint\":\"{:#018x}\"}}",
                snap.version(),
                snap.fingerprint()
            );
            200
        }
        "/metrics" => {
            let snap = s.cell.load();
            let body = resp.body_mut();
            let _ = write!(
                body,
                "{{\"requests\":{},\"predictions\":{},\"batches\":{},\"swaps\":{},\
                 \"swaps_rejected\":{},\"quant\":\"{}\",\"version\":{}}}",
                SERVE_REQUESTS.get(),
                SERVE_PREDICTIONS.get(),
                SERVE_BATCHES.get(),
                SERVE_SWAPS.get(),
                SERVE_SWAPS_REJECTED.get(),
                snap.mode(),
                snap.version(),
            );
            200
        }
        _ => {
            let body = resp.body_mut();
            let _ = write!(body, "{{\"error\":\"no such endpoint\"}}");
            404
        }
    }
}

fn predict(
    s: &Shared,
    req: &Request<'_>,
    feats: &mut SampleFeatures,
    resp: &mut ResponseBuf,
) -> u16 {
    let bad = |resp: &mut ResponseBuf, msg: &str| -> u16 {
        let body = resp.body_mut();
        let _ = write!(body, "{{\"error\":{msg:?}}}");
        400
    };
    let road = match req.param_usize("road") {
        Ok(r) => r,
        Err(e) => return bad(resp, &format!("road: {e}")),
    };
    let tau = match req.param_usize("t") {
        Ok(t) => t,
        Err(e) => return bad(resp, &format!("t: {e}")),
    };
    let n_roads = s.data.corridor().n_roads();
    if road >= n_roads {
        return bad(
            resp,
            &format!("road {road} out of range (corridor has {n_roads})"),
        );
    }
    let alpha = s.data.config().alpha;
    let beta = s.data.config().beta;
    let intervals = s.data.corridor().intervals();
    // τ is the target interval; its base time τ−β needs α history.
    if tau < alpha + beta || tau >= intervals {
        return bad(
            resp,
            &format!(
                "t {tau} out of range (valid: {}..{})",
                alpha + beta,
                intervals
            ),
        );
    }
    // The request keeps the generation it started with, even if the
    // watcher publishes another meanwhile.
    let snap = s.cell.load();
    let model = snap.model();
    s.data
        .features_for_road_into(road, tau - beta, s.cfg.mask, feats);
    let (input, _targets) = encode_features(model.kind(), std::slice::from_ref(feats));
    let out = model.forward_infer(&input, snap.mode());
    let speed = s.data.speed_norm().denormalize(out.at2(0, 0));
    SERVE_BATCHES.bump();
    SERVE_PREDICTIONS.bump();
    let body = resp.body_mut();
    let _ = write!(
        body,
        "{{\"road\":{road},\"t\":{tau},\"speed_kmh\":{speed}}}"
    );
    200
}

fn watcher_loop(s: &Shared, store: &Arc<CheckpointStore>) {
    loop {
        // Sleep in short slices so shutdown stays prompt at any cadence.
        let mut remaining = s.cfg.poll_interval;
        while !remaining.is_zero() {
            if s.stop_watcher.load(Ordering::Acquire) {
                return;
            }
            let step = remaining.min(Duration::from_millis(50));
            std::thread::sleep(step);
            remaining = remaining.saturating_sub(step);
        }
        if s.stop_watcher.load(Ordering::Acquire) {
            return;
        }
        if let Err(e) = try_reload(s, store) {
            eprintln!("serve: hot-swap rejected: {e}");
        }
    }
}

/// One watcher poll: load → parse → fingerprint-compare → restore and
/// prepare → publish. Every failure path leaves the current snapshot
/// serving.
fn try_reload(s: &Shared, store: &CheckpointStore) -> Result<bool, String> {
    let _span = apots_obs::span("serve.swap", false);
    let reject = |e: String| -> Result<bool, String> {
        SERVE_SWAPS_REJECTED.bump();
        Err(e)
    };
    let payload = match store.load() {
        Ok(Some((payload, _src))) => payload,
        Ok(None) => return Ok(false),
        // Torn latest + torn prev, or an unreadable store: keep serving.
        Err(e) => return reject(e),
    };
    let ck = match checkpoint_from_payload(&payload) {
        Ok(ck) => ck,
        Err(e) => return reject(e),
    };
    let current = s.cell.load();
    let snap = match ModelSnapshot::new(ck, current.version() + 1) {
        Ok(snap) => snap,
        Err(e) => return reject(e),
    };
    if snap.fingerprint == current.fingerprint() {
        return Ok(false);
    }
    // Restore and prepare against the serving dataset: shape mismatches
    // and unknown kinds are rejected here, never on the request path, and
    // an int8 deployment quantizes once, before the swap publishes.
    let snap = match QuantizedSnapshot::new(snap, s.cfg.quant, s.cfg.preset, &s.data) {
        Ok(snap) => snap,
        Err(e) => return reject(e),
    };
    s.cell.store(snap);
    SERVE_SWAPS.bump();
    Ok(true)
}
