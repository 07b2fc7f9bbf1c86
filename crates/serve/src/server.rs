//! The serving core: acceptor → connection workers → shard inference
//! loops, plus the checkpoint watcher.
//!
//! Threading model (all `std::thread`, fixed at startup):
//!
//! * one **acceptor** pushes connections onto a queue;
//! * `workers` **connection workers** pop a connection each and speak
//!   keep-alive HTTP/1.1 over it — `/healthz` and `/metrics` are
//!   answered inline, `/predict` is validated and enqueued to a shard;
//! * `shards` **inference loops** each own a predictor replica and drain
//!   their queue in micro-batches of up to `batch_max` — per-sample
//!   forwards are batch-size invariant (DESIGN.md §9), so how requests
//!   happen to batch never changes any answer;
//! * one **watcher** polls the [`CheckpointStore`] through the retrying
//!   fsio plane and atomically publishes verified new snapshots.
//!
//! Requests are routed to shard `road % shards`, so one process serves
//! every segment of the corridor while keeping per-shard replicas warm.

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
use apots::predictor::Predictor;
use apots::InferenceMode;
use apots_obs::metrics::{
    HIST_SERVE_LATENCY_NS, SERVE_BATCHES, SERVE_PREDICTIONS, SERVE_REQUESTS, SERVE_SWAPS,
    SERVE_SWAPS_REJECTED,
};
use apots_traffic::{FeatureMask, SampleFeatures, TrafficDataset};

use crate::http::{read_head, Request, ResponseBuf, METHOD_NOT_ALLOWED};
use crate::snapshot::{checkpoint_from_payload, ModelSnapshot, QuantizedSnapshot, SnapshotCell};

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Connection-worker threads.
    pub workers: usize,
    /// Inference shards (each owns a predictor replica).
    pub shards: usize,
    /// Micro-batch cap per shard drain.
    pub batch_max: usize,
    /// Hyperparameter preset the checkpoint was trained under.
    pub preset: HyperPreset,
    /// Feature mask served to the model.
    pub mask: FeatureMask,
    /// Watcher poll cadence (also the shutdown latency bound).
    pub poll_interval: Duration,
    /// Inference lane every replica serves on: `Exact` reproduces the
    /// training kernels bit-for-bit; `Int8` quantizes weights at
    /// snapshot-publish time (DESIGN.md §15).
    pub quant: InferenceMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            shards: 2,
            batch_max: 32,
            preset: HyperPreset::Fast,
            mask: FeatureMask::BOTH,
            poll_interval: Duration::from_millis(200),
            quant: InferenceMode::Exact,
        }
    }
}

/// One queued prediction: target interval `tau` for `road`, answered
/// through the worker's reusable reply slot.
struct Job {
    road: usize,
    tau: usize,
    reply: Arc<ReplySlot>,
}

/// A reusable one-shot reply channel (no allocation per request — the
/// worker resets and reuses its slot).
struct ReplySlot {
    value: Mutex<Option<f32>>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Self {
        ReplySlot {
            value: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn reset(&self) {
        *self.value.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    fn fill(&self, v: f32) {
        *self.value.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
        self.cv.notify_one();
    }

    fn wait(&self, abandoned: &AtomicBool) -> Option<f32> {
        let mut guard = self.value.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = *guard {
                return Some(v);
            }
            if abandoned.load(Ordering::Acquire) {
                return None;
            }
            let (g, _) = self
                .cv
                .wait_timeout(guard, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }
}

/// A shard's job queue.
struct ShardQueue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

impl ShardQueue {
    fn new() -> Self {
        ShardQueue {
            jobs: Mutex::new(VecDeque::with_capacity(128)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(job);
        self.cv.notify_one();
    }

    /// Drains up to `max` jobs into `out`, waiting until at least one is
    /// available or `stop` is raised. Returns false on stop-and-empty.
    fn drain_into(&self, out: &mut Vec<Job>, max: usize, stop: &AtomicBool) -> bool {
        let mut guard = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !guard.is_empty() {
                while out.len() < max {
                    match guard.pop_front() {
                        Some(j) => out.push(j),
                        None => break,
                    }
                }
                return true;
            }
            if stop.load(Ordering::Acquire) {
                return false;
            }
            let (g, _) = self
                .cv
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }
}

/// Shared state every thread sees.
struct Shared {
    data: Arc<TrafficDataset>,
    cell: SnapshotCell,
    queues: Vec<ShardQueue>,
    conns: Mutex<VecDeque<TcpStream>>,
    conns_cv: Condvar,
    stop_http: AtomicBool,
    stop_shards: AtomicBool,
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
        assert!(cfg.shards >= 1, "ServeConfig: shards >= 1");
        assert!(cfg.batch_max >= 1, "ServeConfig: batch_max >= 1");
        // Fail fast on a checkpoint that cannot serve: the boot model is
        // the one generation with no previous snapshot to fall back to.
        // The trial restore goes through QuantizedSnapshot so an int8
        // deployment also exercises quantization before binding a port.
        let snap = ModelSnapshot::new(initial, 1).map_err(|e| format!("boot checkpoint: {e}"))?;
        let boot = QuantizedSnapshot::new(snap, cfg.quant);
        boot.replica(cfg.preset, &data)
            .map_err(|e| format!("boot checkpoint: {e}"))?;
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;

        let shared = Arc::new(Shared {
            data,
            cell: SnapshotCell::new(boot),
            queues: (0..cfg.shards).map(|_| ShardQueue::new()).collect(),
            conns: Mutex::new(VecDeque::new()),
            conns_cv: Condvar::new(),
            stop_http: AtomicBool::new(false),
            stop_shards: AtomicBool::new(false),
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
        for shard in 0..cfg.shards {
            let s = shared.clone();
            threads.push(spawn_named(&format!("serve-shard-{shard}"), move || {
                shard_loop(&s, shard);
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

    /// Orderly shutdown: stop accepting, drain workers, drain shards,
    /// stop the watcher, join everything.
    pub fn shutdown(mut self) {
        self.shared.stop_http.store(true, Ordering::Release);
        // Unblock the acceptor's blocking accept().
        let _ = TcpStream::connect(self.addr);
        self.shared.conns_cv.notify_all();
        // Workers exit once their current connection goes quiet; their
        // read timeouts bound the wait. Shards drain whatever the
        // workers enqueued, then stop.
        self.shared.stop_shards.store(true, Ordering::Release);
        for q in &self.shared.queues {
            q.cv.notify_all();
        }
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

fn worker_loop(s: &Shared) {
    // Per-worker reusable state: one request in flight at a time, so one
    // reply slot, one head buffer and one response buffer serve every
    // request this worker ever handles.
    let reply = Arc::new(ReplySlot::new());
    let mut head = Vec::with_capacity(1024);
    let mut resp = ResponseBuf::default();
    while let Some(mut stream) = next_conn(s) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let _ = stream.set_nodelay(true);
        'conn: loop {
            head.clear();
            let head_len = loop {
                match read_head(&mut stream, &mut head) {
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
            // Latency is head-parsed → response-flushed: queueing, shard
            // inference and the socket write all count; idle keep-alive
            // time between requests does not.
            let t0 = Instant::now();
            let status = respond(s, &head[..head_len], &reply, &mut resp);
            let text = resp.finish(status);
            let ok = stream.write_all(text.as_bytes()).is_ok();
            HIST_SERVE_LATENCY_NS.record(t0.elapsed().as_nanos() as u64);
            if !ok {
                break 'conn;
            }
        }
    }
}

/// Parses one request and stages the response body; returns the status.
fn respond(s: &Shared, head: &[u8], reply: &Arc<ReplySlot>, resp: &mut ResponseBuf) -> u16 {
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
        "/predict" => predict(s, &req, reply, resp),
        "/healthz" => {
            let snap = s.shared_snapshot();
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
            let snap = s.shared_snapshot();
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
                snap.mode,
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

impl Shared {
    fn shared_snapshot(&self) -> Arc<QuantizedSnapshot> {
        self.cell.load()
    }
}

fn predict(s: &Shared, req: &Request<'_>, reply: &Arc<ReplySlot>, resp: &mut ResponseBuf) -> u16 {
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
    reply.reset();
    s.queues[road % s.queues.len()].push(Job {
        road,
        tau,
        reply: reply.clone(),
    });
    match reply.wait(&s.stop_shards) {
        Some(speed) => {
            SERVE_PREDICTIONS.bump();
            let body = resp.body_mut();
            let _ = write!(
                body,
                "{{\"road\":{road},\"t\":{tau},\"speed_kmh\":{speed}}}"
            );
            200
        }
        None => {
            let body = resp.body_mut();
            let _ = write!(body, "{{\"error\":\"server is shutting down\"}}");
            500
        }
    }
}

fn shard_loop(s: &Shared, shard: usize) {
    let queue = &s.queues[shard];
    let mask = s.cfg.mask;
    let alpha = s.data.config().alpha;
    let beta = s.data.config().beta;
    let n_roads = s.data.corridor().n_roads();
    // Replica + reusable batch state. Feature buffers are written in
    // place each batch; the batch vec recycles its capacity.
    let mut snap = s.cell.load();
    let mut replica: Box<dyn Predictor> = snap
        .replica(s.cfg.preset, &s.data)
        .expect("boot checkpoint was validated in Server::start");
    let mut feats: Vec<SampleFeatures> = (0..s.cfg.batch_max)
        .map(|_| SampleFeatures::zeroed(n_roads, alpha, 0))
        .collect();
    let mut batch: Vec<Job> = Vec::with_capacity(s.cfg.batch_max);
    loop {
        batch.clear();
        if !queue.drain_into(&mut batch, s.cfg.batch_max, &s.stop_shards) {
            break;
        }
        let _span = apots_obs::span("serve.batch", false);
        // Pick up a hot-swapped snapshot at the batch boundary; a
        // failed rebuild keeps the old replica serving (the watcher
        // validated the snapshot, so this is belt-and-braces).
        let current = s.cell.load();
        if current.version() != snap.version() {
            match current.replica(s.cfg.preset, &s.data) {
                Ok(r) => {
                    replica = r;
                    snap = current;
                }
                Err(e) => eprintln!("serve: shard {shard}: replica rebuild failed: {e}"),
            }
        }
        for (f, job) in feats.iter_mut().zip(&batch) {
            s.data
                .features_for_road_into(job.road, job.tau - beta, mask, f);
        }
        let (input, _targets) = encode_features(replica.kind(), &feats[..batch.len()]);
        let out = replica.forward_infer(&input, snap.mode);
        for (i, job) in batch.iter().enumerate() {
            job.reply
                .fill(s.data.speed_norm().denormalize(out.at2(i, 0)));
        }
        SERVE_BATCHES.bump();
        apots_obs::value("serve.batch.size", false, batch.len() as f64);
    }
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

/// One watcher poll: load → parse → fingerprint-compare → trial-restore
/// → publish. Every failure path leaves the current snapshot serving.
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
        Ok(snap) => QuantizedSnapshot::new(snap, s.cfg.quant),
        Err(e) => return reject(e),
    };
    if snap.fingerprint() == current.fingerprint() {
        return Ok(false);
    }
    // Trial restore against the serving dataset: shape mismatches and
    // unknown kinds are rejected here, never on the request path — and
    // because the trial goes through QuantizedSnapshot::replica, it
    // also builds the int8 weights once, proving quantization works
    // before the swap publishes.
    if let Err(e) = snap.replica(s.cfg.preset, &s.data) {
        return reject(e);
    }
    s.cell.store(snap);
    SERVE_SWAPS.bump();
    Ok(true)
}
