//! The planning daemon: a hand-rolled worker pool over
//! `std::net::TcpListener`.
//!
//! One acceptor thread pushes connections into a bounded queue; `workers`
//! threads pop connections and serve all frames on each (requests on one
//! connection are sequential, connections are concurrent). When the queue
//! is full the acceptor answers `Busy` and drops the connection — the
//! protocol's backpressure signal. Shutdown is graceful: the acceptor
//! stops, workers finish the request in hand, blocked reads abort at the
//! next poll tick.
//!
//! Every planning verb is first resolved into one `Job` and then walks
//! four tiers in order: the in-process [`ShardedLru`], the shared on-disk
//! [`PlanStore`], an in-process patch of a cached base plan (`PlanDelta`
//! only), and synthesis. A synthesis is *single-flight*: concurrent
//! requests for the same job fingerprint elect one leader to run the
//! synthesizer while followers wait on its result — N identical jobs
//! cost one synthesis.
//!
//! Neither direction of the hot path parses or builds a payload: a
//! `ProfileBin` request's profile arrives as raw `PROF` codec bytes and
//! is fingerprinted *without decoding* (the `PROF` body is the canonical
//! fingerprint walk), and every cache entry memoizes the plan's `STPL`
//! encoding, so a binary-encoded cache hit decodes nothing and encodes
//! nothing.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stalloc_core::wire::{
    NamedHistogram, PlanEncoding, PlanRequest, PlanResponse, PlanSource, ServeMetrics, ServeStats,
    SolverStrategyMetrics, WireErrorKind,
};
use stalloc_core::{
    apply_delta, BodyDigest, Fingerprint, Plan, ProfiledRequests, StrategyChoice, SynthConfig,
};
use stalloc_obs::{
    parse_trace_id, IdGen, LatencyHistogram, Phase, RequestSpan, ShardedCounter, SpanRing,
    SpanSnapshot, TraceLog, PHASE_COUNT,
};
use stalloc_solver::{patch_plan, synthesize_strategy_reported, CandidateReport};
use stalloc_store::{
    decode_profile, decode_profile_delta, encode_plan, encode_profile, profile_body, PlanStore,
    ShardedLru,
};

use crate::frame::{
    read_announced, read_frame, write_announced, write_frame, FrameError, DEFAULT_MAX_FRAME,
};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker pool size (= maximum concurrently served connections).
    pub workers: usize,
    /// Accept-queue bound: connections waiting for a worker beyond this
    /// are rejected with `Busy`.
    pub queue_depth: usize,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: usize,
    /// Shared on-disk plan store directory (`None` = memory-only).
    pub store_dir: Option<PathBuf>,
    /// In-process LRU capacity in plans (0 disables the LRU tier).
    pub lru_capacity: usize,
    /// Poll tick for shutdown-aware blocking reads.
    pub poll_tick: Duration,
    /// Connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// When set, every served request appends one JSONL trace record
    /// (phase timings, tier, verb) to this file.
    pub trace_log: Option<PathBuf>,
    /// When set, the trace log rotates to `<name>.1` rather than growing
    /// past this many bytes (one rotated generation is kept).
    pub trace_log_max_bytes: Option<u64>,
    /// How many slowest-ever request spans the span ring retains for the
    /// `Metrics` verb (`stalloc serve --slowest`). 0 disables the list.
    pub slowest: usize,
    /// When set, bind this address and serve the `Metrics` payload in
    /// Prometheus text format over HTTP at `GET /metrics` (port 0 picks
    /// a free port; see [`ServerHandle::metrics_http_addr`]).
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            max_frame: DEFAULT_MAX_FRAME,
            store_dir: None,
            lru_capacity: 128,
            poll_tick: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(30),
            trace_log: None,
            trace_log_max_bytes: None,
            slowest: 16,
            metrics_addr: None,
        }
    }
}

/// Server startup/storage failures.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, local_addr).
    Io(std::io::Error),
    /// The plan store could not be opened.
    Store(stalloc_store::StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve: {e}"),
            ServeError::Store(e) => write!(f, "serve: plan store: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Flat request counters, each sharded so eight workers bumping
/// `requests` don't serialize on one cache line.
#[derive(Debug, Default)]
struct Counters {
    requests: ShardedCounter,
    plan_requests: ShardedCounter,
    lru_hits: ShardedCounter,
    store_hits: ShardedCounter,
    misses: ShardedCounter,
    coalesced: ShardedCounter,
    rejected: ShardedCounter,
    errors: ShardedCounter,
    in_flight: ShardedCounter,
    metrics_requests: ShardedCounter,
    delta_requests: ShardedCounter,
    delta_hits: ShardedCounter,
    delta_patched: ShardedCounter,
}

/// An answering tier: its label and its [`ServeStats`] served-plans counter.
pub(crate) type Tier = (&'static str, fn(&ServeStats) -> u64);

/// The answering tiers, indexed by [`tier_index`]; "miss" is a synthesis
/// run, "patched" an in-process plan patch from a cached base. The one
/// list behind the tier histograms and the `/metrics` exposition.
pub(crate) const TIERS: [Tier; 5] = [
    ("lru", |s| s.lru_hits),
    ("store", |s| s.store_hits),
    ("miss", |s| s.misses),
    ("coalesced", |s| s.coalesced),
    ("patched", |s| s.delta_patched),
];

fn tier_index(source: PlanSource) -> usize {
    match source {
        PlanSource::Lru => 0,
        PlanSource::Store => 1,
        PlanSource::Synthesized => 2,
        PlanSource::Coalesced => 3,
        PlanSource::Patched => 4,
    }
}

/// One strategy's long-running synthesis aggregates: every counter is a
/// [`ShardedCounter`] and the per-run wall time lands in a histogram, so
/// recording on the synthesis path reuses the same allocation-free
/// primitives as the request path.
#[derive(Default)]
struct SolverSlot {
    runs: ShardedCounter,
    wins: ShardedCounter,
    invalid: ShardedCounter,
    layout_micros: ShardedCounter,
    pack_micros: ShardedCounter,
    finish_micros: ShardedCounter,
    candidates_evaluated: ShardedCounter,
    placements_tried: ShardedCounter,
    placements_rejected: ShardedCounter,
    elapsed: LatencyHistogram,
}

/// Per-strategy synthesis accounting, one slot per concrete strategy
/// (indexed by [`StrategyChoice::index`]).
struct SolverObs {
    slots: [SolverSlot; StrategyChoice::CONCRETE.len()],
}

impl SolverObs {
    fn new() -> Self {
        SolverObs {
            slots: std::array::from_fn(|_| SolverSlot::default()),
        }
    }

    /// Folds one synthesis run's candidate reports in (a portfolio race
    /// reports every racer; a concrete run reports itself).
    fn record(&self, reports: &[CandidateReport]) {
        for r in reports {
            let slot = &self.slots[r.strategy.index() as usize];
            slot.runs.inc();
            if r.winner {
                slot.wins.inc();
            }
            if !r.valid {
                slot.invalid.inc();
            }
            slot.layout_micros.add(r.profile.layout_micros);
            slot.pack_micros.add(r.profile.pack_micros);
            slot.finish_micros.add(r.profile.finish_micros);
            slot.candidates_evaluated
                .add(r.profile.candidates_evaluated);
            slot.placements_tried.add(r.profile.placements_tried);
            slot.placements_rejected.add(r.profile.placements_rejected);
            slot.elapsed.record(r.elapsed.as_micros() as u64);
        }
    }
}

/// Live observability state: per-phase and per-tier latency histograms,
/// the span retention ring, per-strategy solver accounting, and the
/// optional JSONL trace sink. Shared by all workers; recording is
/// allocation-free (see `stalloc-obs`'s counting-allocator test) except
/// for the opt-in trace log.
struct ServeObs {
    phases: [LatencyHistogram; PHASE_COUNT],
    tiers: [LatencyHistogram; TIERS.len()],
    spans: SpanRing,
    seq: AtomicU64,
    trace: Option<TraceLog>,
    solver: SolverObs,
    /// Mints trace/span ids for requests that arrive without a context
    /// (untraced requests, unit verbs). Lock-free and clock-free.
    ids: IdGen,
}

impl ServeObs {
    fn new(trace: Option<TraceLog>, slowest: usize) -> Self {
        ServeObs {
            phases: std::array::from_fn(|_| LatencyHistogram::new()),
            tiers: std::array::from_fn(|_| LatencyHistogram::new()),
            spans: SpanRing::new(256, slowest),
            seq: AtomicU64::new(0),
            trace,
            solver: SolverObs::new(),
            ids: IdGen::new(),
        }
    }

    /// Folds one finished request in: phase histograms get the phases the
    /// request entered, the answering tier's histogram gets the
    /// end-to-end latency (so each tier's count matches the matching
    /// `ServeStats` counter), and the span lands in the retention ring.
    fn observe(&self, mut span: RequestSpan, tier: Option<PlanSource>) {
        span.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if let Some(source) = tier {
            span.tier = TIERS[tier_index(source)].0;
            self.tiers[tier_index(source)].record(span.total_micros);
        }
        for (phase, micros) in span.entered() {
            self.phases[phase.index()].record(micros);
        }
        self.spans.push(span);
        if let Some(trace) = &self.trace {
            let _ = trace.record(&span);
        }
    }
}

/// A served plan plus its memoized binary (`STPL`) encoding.
///
/// Binary is the default response encoding, so without the memo every
/// LRU hit would re-run `encode_plan` — pure waste, since the encoding
/// is a pure function of the plan and the disk store already holds
/// exactly those bytes. The encoding is populated eagerly when it is
/// already in hand (a store read, a synthesis that is about to be
/// persisted) and lazily on the first binary response otherwise.
pub(crate) struct CachedPlan {
    plan: Plan,
    encoded: OnceLock<Vec<u8>>,
}

impl CachedPlan {
    fn new(plan: Plan) -> Arc<Self> {
        Arc::new(CachedPlan {
            plan,
            encoded: OnceLock::new(),
        })
    }

    fn with_bytes(plan: Plan, bytes: Vec<u8>) -> Arc<Self> {
        Arc::new(CachedPlan {
            plan,
            encoded: OnceLock::from(bytes),
        })
    }

    /// The plan's binary encoding, computed at most once per cache entry.
    fn encoded(&self) -> &[u8] {
        self.encoded.get_or_init(|| encode_plan(&self.plan))
    }
}

/// One in-flight synthesis: the leader publishes its result (or failure)
/// here; followers wait on the condvar.
#[derive(Default)]
struct Flight {
    done: Mutex<Option<Result<Arc<CachedPlan>, String>>>,
    cv: Condvar,
}

/// The syntheses in flight, by job.
type Inflight = Mutex<HashMap<Fingerprint, Arc<Flight>>>;

struct Shared {
    config: ServeConfig,
    shutdown: AtomicBool,
    /// Waiting connections with their enqueue instant (queue-wait phase).
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
    lru: ShardedLru<Arc<CachedPlan>>,
    store: Option<PlanStore>,
    /// Recently *served* profiles as raw canonical `PROF` bytes, keyed
    /// by their config-free *profile* fingerprint — the base-lookup
    /// table of the `PlanDelta` verb. Raw bytes (not decoded profiles)
    /// so population is an `Arc` clone on the binary request path;
    /// decode is paid only when a delta actually lands on the entry.
    /// Only `serve_job` inserts, once a plan answers the job, so every
    /// entry is known to decode.
    profiles: ShardedLru<Arc<Vec<u8>>>,
    inflight: Inflight,
    counters: Counters,
    obs: ServeObs,
}

impl Shared {
    /// Makes a freshly produced plan findable: into the LRU and, best
    /// effort, the store — a store write failure must not fail the
    /// request, the plan is already in hand. The encoding this forces is
    /// the same one binary responses reuse (memoized), so a plan is
    /// encoded once per synthesis or patch, total.
    fn cache(&self, fp: Fingerprint, entry: &Arc<CachedPlan>) {
        self.lru.insert(fp, Arc::clone(entry));
        if let Some(store) = &self.store {
            let _ = store.put_encoded(fp, &entry.plan, entry.encoded());
        }
    }

    fn snapshot(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            requests: c.requests.get(),
            plan_requests: c.plan_requests.get(),
            lru_hits: c.lru_hits.get(),
            store_hits: c.store_hits.get(),
            misses: c.misses.get(),
            coalesced: c.coalesced.get(),
            rejected: c.rejected.get(),
            errors: c.errors.get(),
            in_flight: c.in_flight.get(),
            queue_depth: self.queue.lock().expect("queue lock").len() as u64,
            workers: self.config.workers as u64,
            metrics_requests: c.metrics_requests.get(),
            slowest_capacity: self.config.slowest as u64,
            delta_requests: c.delta_requests.get(),
            delta_hits: c.delta_hits.get(),
            delta_patched: c.delta_patched.get(),
        }
    }

    fn metrics(&self) -> ServeMetrics {
        ServeMetrics {
            stats: self.snapshot(),
            phases: Phase::ALL
                .iter()
                .map(|p| NamedHistogram {
                    name: p.name().to_string(),
                    hist: self.obs.phases[p.index()].snapshot(),
                })
                .collect(),
            tiers: TIERS
                .iter()
                .zip(&self.obs.tiers)
                .map(|((name, _), hist)| NamedHistogram {
                    name: name.to_string(),
                    hist: hist.snapshot(),
                })
                .collect(),
            slowest: self
                .obs
                .spans
                .slowest()
                .iter()
                .map(SpanSnapshot::from)
                .collect(),
            solver: StrategyChoice::CONCRETE
                .iter()
                .map(|c| (c, &self.obs.solver.slots[c.index() as usize]))
                .filter(|(_, s)| s.runs.get() > 0)
                .map(|(c, s)| SolverStrategyMetrics {
                    strategy: c.name().to_string(),
                    runs: s.runs.get(),
                    wins: s.wins.get(),
                    invalid: s.invalid.get(),
                    layout_micros: s.layout_micros.get(),
                    pack_micros: s.pack_micros.get(),
                    finish_micros: s.finish_micros.get(),
                    candidates_evaluated: s.candidates_evaluated.get(),
                    placements_tried: s.placements_tried.get(),
                    placements_rejected: s.placements_rejected.get(),
                    elapsed: s.elapsed.snapshot(),
                })
                .collect(),
        }
    }
}

/// The planning daemon. [`PlanServer::start`] spawns the acceptor and
/// worker threads and returns a [`ServerHandle`] to observe and stop it.
pub struct PlanServer;

impl PlanServer {
    /// Binds `config.addr` and starts serving. Returns once the socket is
    /// listening; serving continues on background threads until
    /// [`ServerHandle::shutdown`].
    pub fn start(config: ServeConfig) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Io)?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;
        let store = match &config.store_dir {
            Some(dir) => Some(PlanStore::open(dir).map_err(ServeError::Store)?),
            None => None,
        };
        let trace = match &config.trace_log {
            Some(path) => Some(
                match config.trace_log_max_bytes {
                    Some(max) => TraceLog::with_max_bytes(path, max),
                    None => TraceLog::create(path),
                }
                .map_err(ServeError::Io)?,
            ),
            None => None,
        };
        // Bind the exposition socket before spawning anything, so a bad
        // --metrics-addr fails startup instead of dying silently later.
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr).map_err(ServeError::Io)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr().map_err(ServeError::Io)?),
            None => None,
        };
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            lru: ShardedLru::new(config.lru_capacity),
            profiles: ShardedLru::new(config.lru_capacity),
            store,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            obs: ServeObs::new(trace, config.slowest),
            config,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("stalloc-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(ServeError::Io)?
        };
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stalloc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(ServeError::Io)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics_thread = match metrics_listener {
            Some(listener) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("stalloc-metrics-http".into())
                        .spawn(move || metrics_http_loop(&listener, &shared))
                        .map_err(ServeError::Io)?,
                )
            }
            None => None,
        };

        Ok(ServerHandle {
            shared,
            addr,
            metrics_addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
            metrics_thread,
        })
    }
}

/// The `/metrics` exposition loop: accept, answer one request, close.
///
/// Deliberately minimal HTTP/1.1 — a scrape is one short-lived GET, so
/// there is no keep-alive, no routing beyond `/metrics`, and the request
/// head read is bounded. Runs on its own thread; a scrape renders a
/// fresh `ServeMetrics` snapshot, so it costs the serving path nothing.
fn metrics_http_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(shared.config.poll_tick);
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = serve_metrics_http(stream, shared);
    }
}

/// Reads one bounded HTTP request head and answers it.
fn serve_metrics_http(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    use std::io::{Read, Write};
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the blank line ending the head, or a 4 KiB bound — a
    // scrape's head is one request line and a few short headers.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 4096 {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or_default();
    let mut parts = request_line.split(|&b| b == b' ');
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    let (status, body) = if method == b"GET" && (path == b"/metrics" || path == b"/") {
        (
            "200 OK",
            crate::prometheus::render_prometheus(&shared.metrics()),
        )
    } else {
        ("404 Not Found", "not found: scrape GET /metrics\n".into())
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Running-server handle: address, live stats, graceful shutdown.
/// Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for :0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` exposition address, when
    /// [`ServeConfig::metrics_addr`] was set (with the real port when it
    /// asked for :0).
    pub fn metrics_http_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Live counter snapshot, without a network roundtrip.
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }

    /// Live latency metrics (what the `Metrics` verb reports), without a
    /// network roundtrip.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.metrics()
    }

    /// Graceful shutdown: stop accepting, let workers finish the request
    /// in hand, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the server stops (another thread must call
    /// [`ServerHandle::shutdown`], or the process is killed). Used by
    /// `stalloc serve`.
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptors with wake-up connections; each re-checks
        // the flag after every accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(maddr) = self.metrics_addr {
            let _ = TcpStream::connect(maddr);
        }
        self.shared.queue_cv.notify_all();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(m) = self.metrics_thread.take() {
            let _ = m.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() || self.metrics_thread.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept failures (e.g. fd exhaustion) must
                // not hot-loop the acceptor at 100% CPU.
                std::thread::sleep(shared.config.poll_tick);
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = respond_and_drop(stream, WireErrorKind::ShuttingDown, "server shutting down");
            return;
        }
        let mut q = shared.queue.lock().expect("queue lock");
        if q.len() >= shared.config.queue_depth {
            drop(q);
            shared.counters.rejected.inc();
            let _ = respond_and_drop(stream, WireErrorKind::Busy, "accept queue full; retry");
            continue;
        }
        q.push_back((stream, Instant::now()));
        drop(q);
        shared.queue_cv.notify_one();
    }
}

/// Writes one typed error frame to a connection we are about to drop.
///
/// The client has usually already written its request; closing with
/// those bytes unread would send an RST that can destroy the error frame
/// in the client's receive queue before it is read. So: send the frame,
/// half-close our write side, and drain (bounded) until the peer closes
/// — the typed `Busy`/`ShuttingDown` signal then reliably arrives.
fn respond_and_drop(
    mut stream: TcpStream,
    kind: WireErrorKind,
    message: &str,
) -> std::io::Result<()> {
    let resp = PlanResponse::Error {
        kind,
        message: message.into(),
    };
    let payload = serde_json::to_string(&resp).unwrap_or_default();
    stream.set_write_timeout(Some(Duration::from_secs(1)))?;
    write_frame(&mut stream, payload.as_bytes())?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Hard wall-clock budget: this runs on the acceptor thread, and a
    // trickling client must not be able to stall accepts.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut sink = [0u8; 16 << 10];
    while Instant::now() < deadline {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
    Ok(())
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared
                    .queue_cv
                    .wait_timeout(q, shared.config.poll_tick)
                    .expect("queue lock")
                    .0;
            }
        };
        match conn {
            Some((stream, queued_at)) => handle_connection(stream, queued_at, shared),
            None => return,
        }
    }
}

/// `Read` adapter over a non-blocking-ish `TcpStream` (short read
/// timeout): retries timeouts until data arrives, the idle budget runs
/// out, or the server begins shutting down — so a worker blocked on a
/// quiet keep-alive connection still notices shutdown within one tick.
struct PatientReader<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
    /// When the first byte of the frame being read arrived. Lets the
    /// frame-read phase measure transfer time only — the idle wait
    /// between keep-alive requests (up to `idle_timeout`) would drown
    /// every other phase if it were counted.
    first_byte: Option<Instant>,
}

impl PatientReader<'_> {
    /// Transfer time of the frame just read (zero if none was), and
    /// re-arms the first-byte stamp for the next one.
    fn transfer_micros(&mut self) -> u64 {
        self.first_byte
            .take()
            .map_or(0, |t0| t0.elapsed().as_micros() as u64)
    }
}

impl std::io::Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut waited = Duration::ZERO;
        loop {
            match self.stream.read(buf) {
                Ok(n) if n > 0 => {
                    self.first_byte.get_or_insert_with(Instant::now);
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::ConnectionAborted,
                            "server shutting down",
                        ));
                    }
                    waited += self.shared.config.poll_tick;
                    if waited >= self.shared.config.idle_timeout {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "connection idle",
                        ));
                    }
                }
                other => return other,
            }
        }
    }
}

/// How a request ends when it serves no plan: a small value, turned into
/// its response (and counted) in exactly one place.
enum Reject {
    /// A typed failure; every one of these bumps `errors`.
    Error(WireErrorKind, String),
    /// No delta base (`PlanDelta`) under this fingerprint — an answer,
    /// not an error.
    NotFound(String),
}

impl Reject {
    fn bad_request(message: String) -> Reject {
        Reject::Error(WireErrorKind::BadRequest, message)
    }

    fn internal(message: String) -> Reject {
        Reject::Error(WireErrorKind::Internal, message)
    }

    /// A frame the decoder refused: `Oversized` keeps its own kind,
    /// everything else is a `BadFrame`.
    fn frame(context: &str, e: &FrameError) -> Reject {
        let kind = match e {
            FrameError::Oversized { .. } => WireErrorKind::Oversized,
            _ => WireErrorKind::BadFrame,
        };
        Reject::Error(kind, format!("{context}{e}"))
    }

    fn into_response(self, shared: &Shared) -> PlanResponse {
        match self {
            Reject::Error(kind, message) => {
                shared.counters.errors.inc();
                PlanResponse::Error { kind, message }
            }
            Reject::NotFound(fingerprint) => PlanResponse::NotFound { fingerprint },
        }
    }
}

/// A request off the connection: the parsed header frame, the payload of
/// the raw frame it announced, if any (a `PROF` profile or a `PROF-DELTA`
/// edit script), and when the header frame was in hand (handling starts).
type Incoming = (PlanRequest, Option<Vec<u8>>, Instant);

/// Reads and parses one request; `span` gets the frame-read and decode
/// phases, verb and trace ids.
///
/// `Ok(None)` is a connection that is simply over (clean EOF at a frame
/// boundary, peer gone, idle, server shutdown); an `Err` is malformed
/// traffic, after which the stream is unsynchronized.
fn read_request(
    reader: &mut PatientReader<'_>,
    shared: &Shared,
    span: &mut RequestSpan,
) -> Result<Option<Incoming>, Reject> {
    let payload = match read_frame(reader, shared.config.max_frame) {
        Ok(Some(p)) => p,
        Ok(None) | Err(FrameError::Io(_)) => return Ok(None),
        Err(e) => return Err(Reject::frame("", &e)),
    };
    // End-to-end latency starts at the header frame's first byte.
    span.total_micros = reader.transfer_micros();
    span.record(Phase::FrameRead, span.total_micros);
    let started = Instant::now();
    shared.counters.requests.inc();

    let request: PlanRequest = std::str::from_utf8(&payload)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))
        .map_err(|e| Reject::Error(WireErrorKind::BadFrame, format!("unparseable request: {e}")))?;
    span.record_since(Phase::Decode, started);
    span.verb = verb_name(&request);
    // Propagated ids win; a request without a context (an untraced
    // request, a unit verb) gets server-minted root ids so its trace line and
    // span are still addressable.
    span.trace = request
        .trace_context()
        .unwrap_or_else(|| shared.obs.ids.root());

    let raw = match &request {
        PlanRequest::ProfileBin { bytes, .. } | PlanRequest::PlanDelta { bytes, .. } => {
            let raw = match read_announced(reader, shared.config.max_frame, *bytes) {
                Ok(Some(r)) => r,
                Ok(None) | Err(FrameError::Io(_)) => return Ok(None),
                Err(e) => return Err(Reject::frame("binary request frame: ", &e)),
            };
            // The raw frame is frame reading too (transfer time only,
            // same first-byte rule as the header frame).
            span.record(Phase::FrameRead, reader.transfer_micros());
            Some(raw)
        }
        _ => None,
    };
    Ok(Some((request, raw, started)))
}

fn handle_connection(stream: TcpStream, queued_at: Instant, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_tick));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = PatientReader {
        stream: &stream,
        shared,
        first_byte: None,
    };
    // Accept-queue residency belongs to the *first* request's span;
    // later requests on this keep-alive connection never queued.
    let mut queue_wait = Some(queued_at.elapsed());

    loop {
        let mut span = RequestSpan::new("?");
        let (request, raw, started) = match read_request(&mut reader, shared, &mut span) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(reject) => {
                // Malformed traffic gets a typed error, then the stream is
                // unsynchronized, so close. The worker itself moves on to
                // the next connection unharmed.
                if let Ok(payload) = serde_json::to_string(&reject.into_response(shared)) {
                    let _ = write_frame(&mut writer, payload.as_bytes());
                }
                return;
            }
        };
        if let Some(wait) = queue_wait.take() {
            span.record(Phase::QueueWait, wait.as_micros() as u64);
        }

        shared.counters.in_flight.inc();
        let (response, raw) = handle_request(request, raw, started, shared, &mut span)
            .unwrap_or_else(|reject| (reject.into_response(shared), None));
        // Decrement before the response write: a client that has read its
        // response must never still observe itself as in-flight.
        shared.counters.in_flight.dec();
        let (tier, keep_alive) = match &response {
            PlanResponse::Plan { source, .. } | PlanResponse::PlanBin { source, .. } => {
                (Some(*source), true)
            }
            PlanResponse::Error { kind, .. } => (None, *kind != WireErrorKind::BadFrame),
            _ => (None, true),
        };

        let encode_start = Instant::now();
        let Ok(payload) = serde_json::to_string(&response) else {
            return;
        };
        span.record_since(Phase::Encode, encode_start);

        // Binary-encoded plans ride in a raw follow-up frame, outside
        // the JSON header. The encoding memo was populated
        // when the `PlanBin` header was built, so this is a pure write.
        let write_start = Instant::now();
        let write_ok = write_announced(
            &mut writer,
            payload.as_bytes(),
            raw.as_ref().map(|entry| entry.encoded()),
        )
        .is_ok();
        span.record_since(Phase::FrameWrite, write_start);

        // End-to-end latency: the header frame's transfer time (in
        // `total_micros` since `read_request`), everything since
        // (`started.elapsed()` already covers any raw profile frame), plus
        // the accept-queue wait that preceded it.
        span.total_micros +=
            span.phase_micros(Phase::QueueWait).unwrap_or(0) + started.elapsed().as_micros() as u64;
        shared.obs.observe(span, tier);

        if !write_ok || !keep_alive {
            return;
        }
    }
}

/// The request's verb name, as spans and trace lines report it.
fn verb_name(request: &PlanRequest) -> &'static str {
    match request {
        PlanRequest::Plan { .. } => "Plan",
        PlanRequest::ProfileBin { .. } => "ProfileBin",
        PlanRequest::PlanDelta { .. } => "PlanDelta",
        PlanRequest::TraceGet { .. } => "TraceGet",
        PlanRequest::Metrics => "Metrics",
        PlanRequest::Ping => "Ping",
    }
}

/// A response and, for a `PlanBin` header, the cache entry whose binary
/// encoding the connection handler writes as the raw frame behind it.
type Served = (PlanResponse, Option<Arc<CachedPlan>>);

/// A plan found or made, with the tier that produced it.
type Hit = (Arc<CachedPlan>, PlanSource);

/// Packages a served plan for the requested encoding: inline JSON, or a
/// `PlanBin` header plus the cache entry whose memoized binary encoding
/// the connection handler writes as the follow-up frame. The encoding is
/// computed at most once per cache entry, not once per response.
fn plan_response(
    fingerprint: String,
    (entry, source): Hit,
    started: Instant,
    encoding: PlanEncoding,
    span: &mut RequestSpan,
) -> Served {
    let encode_start = Instant::now();
    match encoding {
        PlanEncoding::Json => {
            let plan = entry.plan.clone();
            span.record_since(Phase::Encode, encode_start);
            (
                PlanResponse::Plan {
                    fingerprint,
                    source,
                    micros: started.elapsed().as_micros() as u64,
                    plan,
                },
                None,
            )
        }
        PlanEncoding::Binary => {
            // May run `encode_plan` (first binary response for an entry
            // whose bytes weren't already in hand) — encode-phase work.
            let bytes = entry.encoded().len() as u64;
            span.record_since(Phase::Encode, encode_start);
            (
                PlanResponse::PlanBin {
                    fingerprint,
                    source,
                    micros: started.elapsed().as_micros() as u64,
                    bytes,
                },
                Some(entry),
            )
        }
    }
}

/// Handles one parsed request (`raw` is the payload of the raw frame a
/// `ProfileBin` or `PlanDelta` header announced).
fn handle_request(
    request: PlanRequest,
    raw: Option<Vec<u8>>,
    started: Instant,
    shared: &Shared,
    span: &mut RequestSpan,
) -> Result<Served, Reject> {
    let response = match request {
        PlanRequest::Ping => PlanResponse::Pong,
        PlanRequest::Metrics => {
            shared.counters.metrics_requests.inc();
            PlanResponse::Metrics {
                metrics: shared.metrics(),
            }
        }
        PlanRequest::TraceGet { trace_id } => {
            let id = parse_trace_id(&trace_id).ok_or_else(|| {
                Reject::bad_request(format!("'{trace_id}' is not a 32-hex-digit trace id"))
            })?;
            let spans = shared
                .obs
                .spans
                .by_trace(id)
                .iter()
                .map(SpanSnapshot::from)
                .collect();
            PlanResponse::Trace { trace_id, spans }
        }
        planning => {
            let job = resolve_job(planning, raw, shared, span)?;
            return serve_job(&job, started, shared, span);
        }
    };
    Ok((response, None))
}

/// What every planning verb (`Plan`, `ProfileBin`, `PlanDelta`) resolves
/// to before any tier is consulted.
struct Job {
    fp: Fingerprint,
    /// The profile's config-free identity, from the same one walk of
    /// `canonical` as `fp`: the key it becomes a delta base under.
    profile_fp: Fingerprint,
    config: SynthConfig,
    encoding: PlanEncoding,
    /// The profile's canonical `PROF` bytes, which `fp` is the hash of.
    canonical: Arc<Vec<u8>>,
    /// The profile itself, when the request delivered it decoded (`Plan`)
    /// or produced it (`PlanDelta`); a `ProfileBin`'s is decoded from
    /// `canonical` only when every cache misses.
    profile: Option<ProfiledRequests>,
    /// `PlanDelta` only: the decoded base profile and the *base job's*
    /// fingerprint, under which the patched tier looks for a base plan.
    base: Option<(ProfiledRequests, Fingerprint)>,
}

/// Resolves a planning verb into its [`Job`]: counts it, brings the
/// profile into canonical `PROF` bytes, digests those bytes once and
/// derives both the job and the profile fingerprint from the digest.
fn resolve_job(
    request: PlanRequest,
    raw: Option<Vec<u8>>,
    shared: &Shared,
    span: &mut RequestSpan,
) -> Result<Job, Reject> {
    shared.counters.plan_requests.inc();
    let (config, encoding, profile, base) = match request {
        PlanRequest::Plan {
            profile,
            config,
            encoding,
            ..
        } => (config, encoding, Some(profile), None),
        PlanRequest::ProfileBin {
            config, encoding, ..
        } => (config, encoding, None, None),
        PlanRequest::PlanDelta {
            config, encoding, ..
        } => {
            shared.counters.delta_requests.inc();
            let raw = raw.as_deref().expect("connection handler reads the frame");
            let decode_start = Instant::now();
            let delta = decode_profile_delta(raw)
                .map_err(|e| Reject::bad_request(format!("binary profile delta: {e}")))?;
            span.record_since(Phase::Decode, decode_start);
            // Base gone from the profile cache (or never seen): tell the
            // client which base missed so it can retry with the full
            // profile — the delta alone cannot be synthesized.
            let base_raw = shared
                .profiles
                .get(delta.base)
                .ok_or_else(|| Reject::NotFound(delta.base.to_hex()))?;
            // Materialize the next profile: decode the cached base and
            // apply the edit script (replan-phase work — the delta
            // path's substitute for a full profile transfer + decode).
            let replan_start = Instant::now();
            let base_profile = decode_profile(&base_raw)
                .map_err(|e| Reject::internal(format!("cached base profile undecodable: {e}")))?;
            let next_profile = apply_delta(&base_profile, &delta)
                .map_err(|e| Reject::bad_request(format!("profile delta does not apply: {e}")))?;
            span.record_since(Phase::Replan, replan_start);
            let base_fp =
                BodyDigest::of(profile_body(&base_raw).expect("cache holds canonical bytes"))
                    .job(&config);
            let base = Some((base_profile, base_fp));
            (config, encoding, Some(next_profile), base)
        }
        _ => unreachable!("handle_request answers every other verb itself"),
    };
    let fp_start = Instant::now();
    let canonical = Arc::new(match &profile {
        Some(profile) => encode_profile(profile),
        // A `ProfileBin`'s bytes are canonical already, and fingerprinted
        // as sent: a cache hit never pays the profile decode (nor, with
        // the encoding memo, a plan encode) — the whole point of the
        // binary request path. They move into the `Arc` once, so
        // `serve_job` remembering them as a delta base is no copy.
        None => raw.expect("connection handler reads the frame"),
    });
    let body = profile_body(&canonical)
        .map_err(|e| Reject::bad_request(format!("binary profile: {e}")))?;
    // One walk of the bytes, both identities.
    let digest = BodyDigest::of(body);
    let (fp, profile_fp) = (digest.job(&config), digest.profile());
    span.record_since(Phase::Fingerprint, fp_start);
    Ok(Job {
        fp,
        profile_fp,
        config,
        encoding: encoding.unwrap_or(PlanEncoding::Json),
        canonical,
        profile,
        base,
    })
}

/// Walks a resolved job down the tiers, in order, and packages whichever
/// answers first: the caches (tiers 1 and 2 — the job may already have a
/// plan), the patch of a cached base plan, synthesis.
fn serve_job(
    job: &Job,
    started: Instant,
    shared: &Shared,
    span: &mut RequestSpan,
) -> Result<Served, Reject> {
    let cached = lookup_counted(job.fp, shared, span);
    if cached.is_some() && job.base.is_some() {
        shared.counters.delta_hits.inc();
    }
    let hit = match cached.or_else(|| patched_tier(job, shared, span)) {
        Some(hit) => hit,
        None => synthesis_tier(job, shared, span)?,
    };
    // A plan answers this job, so its bytes decode (here, or wherever
    // the cached plan was made): only now may a later `PlanDelta` find
    // them as its base — an applied `PlanDelta`'s included, so a family
    // N → N+1 → N+2 chains deltas without re-sending a full profile. A
    // `ProfileBin` with a sound header over a garbage body was rejected
    // in `synthesis_tier` and never gets here.
    shared
        .profiles
        .insert(job.profile_fp, Arc::clone(&job.canonical));
    let fingerprint = job.fp.to_hex();
    Ok(plan_response(fingerprint, hit, started, job.encoding, span))
}

/// Tier 3, for a job that came with a base: patch the cached base plan
/// in-process. `None` — no cached base plan, or a patch that panicked,
/// failed or didn't survive validation — sends the applied profile down
/// the ordinary synthesis path.
fn patched_tier(job: &Job, shared: &Shared, span: &mut RequestSpan) -> Option<Hit> {
    let ((base_profile, base_fp), next_profile) = job.base.as_ref().zip(job.profile.as_ref())?;
    // The base plan is an *input* to serving, not the answer: tier
    // counters and lookup phases must reflect only the plan actually
    // served, so the probe is uncounted and times into a throw-away span.
    let (base_entry, _) = lookup_cached(*base_fp, shared, &mut RequestSpan::new(""))?;
    let patch_start = Instant::now();
    let patched = catch_unwind(AssertUnwindSafe(|| {
        patch_plan(base_profile, &base_entry.plan, next_profile)
    }))
    .ok()
    .and_then(|r| r.ok())
    .filter(|(plan, _)| plan.validate().is_ok());
    span.record_since(Phase::Replan, patch_start);
    let (plan, _stats) = patched?;
    shared.counters.delta_patched.inc();
    let entry = CachedPlan::new(plan);
    shared.cache(job.fp, &entry);
    Some((entry, PlanSource::Patched))
}

/// The in-process LRU, then the shared disk store (promoting disk hits
/// into the LRU) — uncounted; [`lookup_counted`] is the serving form.
/// Corrupt or unsound store entries are treated as misses, mirroring
/// `synthesize_cached`. A disk hit seeds the entry's encoding memo with
/// the artifact's own bytes — they are exactly `encode_plan` output, so
/// binary responses for that entry never encode at all.
fn lookup_cached(fp: Fingerprint, shared: &Shared, span: &mut RequestSpan) -> Option<Hit> {
    let lru_start = Instant::now();
    let lru_hit = shared.lru.get(fp);
    span.record_since(Phase::LruLookup, lru_start);
    if let Some(entry) = lru_hit {
        return Some((entry, PlanSource::Lru));
    }
    let store = shared.store.as_ref()?;
    let store_start = Instant::now();
    let found = store
        .get_with_bytes(fp)
        .ok()
        .flatten()
        .filter(|(p, _)| p.validate().is_ok());
    span.record_since(Phase::StoreLookup, store_start);
    let (plan, bytes) = found?;
    let entry = CachedPlan::with_bytes(plan, bytes);
    shared.lru.insert(fp, Arc::clone(&entry));
    Some((entry, PlanSource::Store))
}

/// [`lookup_cached`] for a plan that *answers* a request: the hit is
/// counted against the tier that held it.
fn lookup_counted(fp: Fingerprint, shared: &Shared, span: &mut RequestSpan) -> Option<Hit> {
    let hit = lookup_cached(fp, shared, span)?;
    match hit.1 {
        PlanSource::Lru => shared.counters.lru_hits.inc(),
        _ => shared.counters.store_hits.inc(),
    }
    Some(hit)
}

/// A leader's hold on its in-flight entry. Dropping it lands the flight:
/// publishes the result to the followers and retires the entry, in that
/// order — a request arriving after the entry is gone must find the plan
/// in the caches. A leader that unwinds before [`Self::land`] publishes
/// an error instead, so neither its followers nor a later request
/// joining the stale entry wait forever.
struct Leader<'a> {
    inflight: &'a Inflight,
    fp: Fingerprint,
    flight: Arc<Flight>,
    result: Result<Arc<CachedPlan>, String>,
}

impl Leader<'_> {
    fn land(mut self, result: Result<Arc<CachedPlan>, String>) {
        self.result = result;
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        // May run while unwinding: a poisoned lock must not turn one
        // panic into an abort.
        let result = std::mem::replace(&mut self.result, Err(String::new()));
        *self
            .flight
            .done
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.flight.cv.notify_all();
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.fp);
    }
}

/// Joins the flight for `fp`: the first request in becomes its leader,
/// the ones landing while it runs get the flight to wait on.
fn join_flight(inflight: &Inflight, fp: Fingerprint) -> Result<Leader<'_>, Arc<Flight>> {
    let mut leader = false;
    let flight = Arc::clone(
        inflight
            .lock()
            .expect("inflight lock")
            .entry(fp)
            .or_insert_with(|| {
                leader = true;
                Arc::default()
            }),
    );
    if !leader {
        return Err(flight);
    }
    Ok(Leader {
        inflight,
        fp,
        flight,
        result: Err("leader unwound".to_string()),
    })
}

/// Tier 4: synthesis, with single-flight deduplication. The first
/// request for a job becomes the leader and synthesizes; requests landing
/// while it runs wait on the flight and share the result.
fn synthesis_tier(job: &Job, shared: &Shared, span: &mut RequestSpan) -> Result<Hit, Reject> {
    // Only now is a `ProfileBin`'s profile actually needed (decode-phase
    // work, deferred off the hit path).
    let decoded;
    let profile = match &job.profile {
        Some(profile) => profile,
        None => {
            let decode_start = Instant::now();
            decoded = decode_profile(&job.canonical)
                .map_err(|e| Reject::bad_request(format!("binary profile: {e}")))?;
            span.record_since(Phase::Decode, decode_start);
            &decoded
        }
    };

    let leader = match join_flight(&shared.inflight, job.fp) {
        Ok(leader) => leader,
        Err(flight) => {
            // A follower's synthesis phase is its wait on the leader's
            // run — the time this request spent on (someone's) synthesis.
            let wait_start = Instant::now();
            let done = flight.done.lock().expect("flight lock");
            let done = flight
                .cv
                .wait_while(done, |done| done.is_none())
                .expect("flight lock");
            let result = done.clone().expect("checked some");
            span.record_since(Phase::Synthesis, wait_start);
            let entry =
                result.map_err(|e| Reject::internal(format!("coalesced synthesis failed: {e}")))?;
            shared.counters.coalesced.inc();
            return Ok((entry, PlanSource::Coalesced));
        }
    };

    // Leader re-check: this thread may have read the caches *before* a
    // previous leader for the same job published its plan and retired its
    // flight entry. Without this, two "one" syntheses could both run —
    // the map insert happens-after the previous leader's cache insert, so
    // a second look is conclusive.
    if let Some(hit) = lookup_counted(job.fp, shared, span) {
        leader.land(Ok(Arc::clone(&hit.0)));
        return Ok(hit);
    }

    // Leader: synthesize behind a panic guard — a worker must survive any
    // pathological profile. (Followers are safe either way: whatever
    // unwinds from here on, `leader` lands the flight as it drops.)
    // `synthesize_strategy_reported` honours the request's strategy
    // choice, including the portfolio race, and its candidate reports
    // feed the per-strategy solver aggregates.
    let synth_start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        synthesize_strategy_reported(profile, &job.config)
    }))
    .map(|(plan, reports)| {
        shared.obs.solver.record(&reports);
        CachedPlan::new(plan)
    })
    .map_err(|_| "synthesis panicked".to_string());
    span.record_since(Phase::Synthesis, synth_start);
    if let Ok(entry) = &outcome {
        shared.counters.misses.inc();
        shared.cache(job.fp, entry);
    }
    leader.land(outcome.clone());
    outcome
        .map(|entry| (entry, PlanSource::Synthesized))
        .map_err(Reject::internal)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leader that panics after taking the flight — past the synthesis
    /// guard, where store I/O and the cache re-check run — must not strand
    /// anyone: the follower wakes with an error (it waits with a timeout
    /// here, so a regression fails instead of hanging) and the entry is
    /// retired, so the next request for the fingerprint leads afresh.
    #[test]
    fn an_unwinding_leader_lands_an_error_and_retires_its_flight() {
        let inflight = Inflight::default();
        let fp = Fingerprint([7; 16]);
        let leader = join_flight(&inflight, fp).ok().expect("first in leads");
        let flight = join_flight(&inflight, fp).err().expect("second in follows");
        let woke_with = std::thread::scope(|s| {
            let follower = s.spawn(|| {
                let done = flight.done.lock().unwrap();
                let (done, wait) = flight
                    .cv
                    .wait_timeout_while(done, Duration::from_secs(10), |d| d.is_none())
                    .unwrap();
                assert!(!wait.timed_out(), "the follower was never woken");
                done.clone().expect("woken with a result")
            });
            let unwound = s.spawn(move || {
                let _leader = leader;
                panic!("injected: the leader dies holding the flight");
            });
            assert!(unwound.join().is_err());
            follower.join().expect("follower thread")
        });
        assert_eq!(woke_with.err().as_deref(), Some("leader unwound"));
        assert!(inflight.lock().unwrap().is_empty(), "stale entry left");
        assert!(join_flight(&inflight, fp).is_ok(), "a fresh request leads");
    }

    #[test]
    fn a_landed_result_is_what_followers_see() {
        let inflight = Inflight::default();
        let fp = Fingerprint([9; 16]);
        let leader = join_flight(&inflight, fp).ok().expect("first in leads");
        let flight = join_flight(&inflight, fp).err().expect("second in follows");
        leader.land(Err("synthesis panicked".to_string()));
        let done = flight.done.lock().unwrap().clone().expect("landed");
        assert_eq!(done.err().as_deref(), Some("synthesis panicked"));
        assert!(inflight.lock().unwrap().is_empty());
    }
}
