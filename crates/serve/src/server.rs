//! The HTTP server: wait-free generation-snapshot reads, admission
//! control, and graceful degradation over a fixed worker pool.
//!
//! # Architecture
//!
//! Each dataset lives in a `DatasetSlot` holding an `Arc` to an
//! immutable **generation** — the full [`DatasetService`] (compact
//! scores: sampled weights and coordinates, multi-`k` cache, RNG state;
//! about 1.8 MB at `n = 2,000`, `N = 20,000`) plus a monotonically
//! increasing id. Readers (`/solve`, `/evaluate`, `/datasets`,
//! `/stats`) clone the `Arc` (nanoseconds under a read lock that is
//! only ever held for pointer copies) and answer from the snapshot
//! without blocking anyone. Writers (`/update`, `/refine`) serialize on
//! a small per-dataset mutex, clone the current generation **off the
//! read path** (the clone shares the scores, so nothing is copied),
//! give the clone its next scores (an update shares the weights and
//! scores only the inserted points, a refine appends samples),
//! re-harvest the cache into the clone, and publish it with a single
//! swap — so a failed or panicking writer publishes nothing and the
//! previous generation keeps serving bit-identical answers.
//!
//! A dedicated acceptor thread feeds a **bounded** connection queue;
//! when the queue is full, new connections are shed immediately with
//! `503` + `Retry-After` instead of queueing unboundedly. Workers serve
//! **keep-alive** connections (bounded requests per connection, bounded
//! idle wait). Every request may carry a `deadline_ms` budget (or
//! inherit the server default), checked before and during expensive
//! work and answered with `504`; shutdown drains gracefully — stop
//! accepting, finish in-flight requests, and abort unpublished
//! generation builds via the deadline's cancellation flag.
//!
//! # Endpoints
//!
//! | route | method | query / body |
//! |---|---|---|
//! | `/healthz` | GET | — (liveness: always 200 while the process serves) |
//! | `/readyz` | GET | — (readiness: 200 with generation ids, 503 while draining) |
//! | `/datasets` | GET | — |
//! | `/algos` | GET | — (the solver registry with per-algorithm capabilities) |
//! | `/solve` | GET | `dataset`, `k`, `algo` (any registered name, default `add-greedy`), `deadline_ms`, plus solver params (`seed`, `measure`, `max-passes`, `prune`, `lazy`, `cache`, `exact`, `epsilon`, `sigma`, `reduce`, `reduce-eps`) |
//! | `/evaluate` | GET | `dataset`, `selection` (comma-separated indices) |
//! | `/update` | POST | `dataset`, `deadline_ms`; body = op stream (`insert,c0,..` / `delete,IDX`) |
//! | `/refine` | POST | `dataset`, `epsilon`, optional `sigma`, `deadline_ms` — publishes a precision-upgraded generation (Chernoff-driven sample growth + cache re-harvest) |
//! | `/stats` | GET | — (per dataset: points, samples, generation, achieved ε, request counters; server: shed/deadline counters) |
//!
//! # Failure semantics
//!
//! Client mistakes map to 400 (404 for an unknown dataset or route, 405
//! for a wrong method); an exhausted `deadline_ms` answers 504; a shed
//! connection or draining server answers 503 with `Retry-After`; a
//! handler panic is caught and answered with 500 instead of killing the
//! worker. Writer failures of any kind — error, panic, injected fault
//! ([`fam_core::failpoints`]), deadline, cancellation — leave the
//! previous generation serving: publication is all-or-nothing.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use fam_algos::{Registry, SolverSpec};
use fam_core::{failpoints, Deadline, FamError};

use crate::http::{read_request, write_response, Request, ResponseOpts};
use crate::json::{array_raw, array_usize, Obj};
use crate::service::DatasetService;

/// Default worker-pool size.
pub const DEFAULT_WORKERS: usize = 4;

/// Admission-control and connection-handling knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads serving connections (plus one acceptor thread).
    pub workers: usize,
    /// Accepted connections waiting for a worker before new ones are
    /// shed with `503` + `Retry-After`.
    pub max_pending: usize,
    /// Default per-request deadline (ms) when the client sends no
    /// `deadline_ms`; `None` serves without a budget.
    pub default_deadline_ms: Option<u64>,
    /// Requests served on one keep-alive connection before the server
    /// answers `Connection: close`.
    pub max_requests_per_conn: u64,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// The `Retry-After` (seconds) attached to every 503.
    pub retry_after_secs: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: DEFAULT_WORKERS,
            max_pending: 64,
            default_deadline_ms: None,
            max_requests_per_conn: 1_000,
            idle_timeout: Duration::from_secs(5),
            retry_after_secs: 1,
        }
    }
}

/// Per-dataset request counters (lock-free; incremented outside any
/// dataset lock).
#[derive(Debug, Default)]
pub struct DatasetStats {
    solve: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    evaluate: AtomicU64,
    updates: AtomicU64,
    rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
}

/// One immutable published snapshot of a dataset: service + id.
struct Generation {
    id: u64,
    service: DatasetService,
}

struct DatasetSlot {
    /// The published generation. The read lock is held only for `Arc`
    /// pointer copies (load) and the publish swap (store) — never
    /// across a solve or a generation build — so readers are
    /// effectively wait-free.
    current: RwLock<Arc<Generation>>,
    /// Serializes writers; carries no data, so a poisoned lock (a
    /// panicking writer) is safely recovered — whatever the dead writer
    /// was building was never published.
    writer: Mutex<()>,
    stats: DatasetStats,
}

impl DatasetSlot {
    fn snapshot(&self) -> Arc<Generation> {
        match self.current.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    fn publish(&self, gen: Arc<Generation>) {
        match self.current.write() {
            Ok(mut g) => *g = gen,
            Err(poisoned) => *poisoned.into_inner() = gen,
        }
    }

    fn writer_turn(&self) -> MutexGuard<'_, ()> {
        match self.writer.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

struct ServerState {
    datasets: BTreeMap<String, DatasetSlot>,
    opts: ServerOptions,
    started: Instant,
    requests: AtomicU64,
    /// Connections shed because the pending queue was full.
    shed: AtomicU64,
    /// The drain flag: set by [`ServerHandle::shutdown`], doubles as the
    /// cancellation flag inside every writer's [`Deadline`].
    shutdown: Arc<AtomicBool>,
    pending: Mutex<VecDeque<TcpStream>>,
    pending_cv: Condvar,
}

impl ServerState {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Recovers a possibly-poisoned guard over poison-safe data (plain
/// queues/maps whose every state is valid).
fn lock_pending(state: &ServerState) -> MutexGuard<'_, VecDeque<TcpStream>> {
    match state.pending.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

/// Clonable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful drain: stop accepting, finish in-flight
    /// requests (keep-alive connections are answered
    /// `Connection: close`), and abort in-progress generation builds
    /// via their cancellation flag — nothing half-built is published.
    /// Returns once the flag is set; `Server::run` returns when the
    /// workers have drained.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // The acceptor is parked in `accept`: one dummy connection
        // wakes it. Idle workers are parked on the queue condvar.
        let _ = TcpStream::connect(self.addr);
        self.state.pending_cv.notify_all();
    }
}

impl Server {
    /// [`Server::bind_with`] with default [`ServerOptions`] and the
    /// given worker count — the stable constructor most callers use.
    ///
    /// # Errors
    ///
    /// As [`Server::bind_with`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        services: Vec<DatasetService>,
        workers: usize,
    ) -> std::io::Result<Server> {
        Server::bind_with(addr, services, ServerOptions { workers, ..ServerOptions::default() })
    }

    /// Binds the listener and seats each dataset as generation 1. Port 0
    /// picks a free port (see [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Returns bind errors, an empty dataset list, or duplicate names as
    /// `std::io::Error`.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        services: Vec<DatasetService>,
        opts: ServerOptions,
    ) -> std::io::Result<Server> {
        if services.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "at least one dataset is required",
            ));
        }
        let mut datasets = BTreeMap::new();
        for svc in services {
            let name = svc.name().to_string();
            let slot = DatasetSlot {
                current: RwLock::new(Arc::new(Generation { id: 1, service: svc })),
                writer: Mutex::new(()),
                stats: DatasetStats::default(),
            };
            if datasets.insert(name.clone(), slot).is_some() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("duplicate dataset name `{name}`"),
                ));
            }
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let opts = ServerOptions { workers: opts.workers.max(1), ..opts };
        let state = Arc::new(ServerState {
            datasets,
            opts,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
            pending: Mutex::new(VecDeque::new()),
            pending_cv: Condvar::new(),
        });
        Ok(Server { listener, addr, state })
    }

    /// The bound address (resolves port 0 to the assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { addr: self.addr, state: Arc::clone(&self.state) }
    }

    /// Runs the acceptor + worker pool until [`ServerHandle::shutdown`],
    /// then drains: queued connections are served to completion before
    /// the workers exit.
    pub fn run(self) {
        // Every request handler shares fam-core's process-wide solver
        // pool; spawning its workers now keeps the first solve (and the
        // first `POST /update` re-harvest) from paying thread-spawn
        // latency on a client's clock.
        fam_core::par::prewarm();
        let state = &self.state;
        let listener = &self.listener;
        std::thread::scope(|s| {
            s.spawn(move || acceptor_loop(state, listener));
            for _ in 0..state.opts.workers {
                s.spawn(move || worker_loop(state));
            }
        });
    }
}

/// Accepts connections and feeds the bounded queue; sheds with `503` +
/// `Retry-After` when the queue is full, so overload degrades crisply
/// instead of building an unbounded backlog.
fn acceptor_loop(state: &ServerState, listener: &TcpListener) {
    loop {
        if state.draining() {
            state.pending_cv.notify_all();
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        if state.draining() {
            // The wake-up connection from `shutdown` (or a client racing
            // the drain: it observes a closed connection and retries
            // elsewhere).
            state.pending_cv.notify_all();
            return;
        }
        let depth = lock_pending(state).len();
        if depth >= state.opts.max_pending {
            state.shed.fetch_add(1, Ordering::Relaxed);
            shed(stream, state.opts.retry_after_secs);
            continue;
        }
        lock_pending(state).push_back(stream);
        state.pending_cv.notify_one();
    }
}

/// Answers an immediately-shed connection without reading the request.
fn shed(mut stream: TcpStream, retry_after_secs: u64) {
    let _ = stream.set_write_timeout(Some(crate::http::WRITE_TIMEOUT));
    let body = Obj::new()
        .str("error", "server overloaded: pending-connection budget exhausted")
        .num("retry_after_secs", retry_after_secs)
        .build();
    let _ = write_response(
        &mut stream,
        503,
        &body,
        ResponseOpts { keep_alive: false, retry_after_secs: Some(retry_after_secs) },
    );
}

fn worker_loop(state: &ServerState) {
    loop {
        let stream = {
            let mut q = lock_pending(state);
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if state.draining() {
                    break None;
                }
                q = match state.pending_cv.wait(q) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        match stream {
            Some(s) => serve_connection(state, s),
            None => return, // draining and the queue is empty
        }
    }
}

/// Serves one (keep-alive) connection: up to
/// [`ServerOptions::max_requests_per_conn`] requests, each read under
/// the idle budget, with `Connection: close` answered on the last one,
/// on client request, or while draining.
fn serve_connection(state: &ServerState, mut stream: TcpStream) {
    // Request/response pairs ping-pong on a persistent connection;
    // without NODELAY, Nagle + delayed ACK can stall each exchange by
    // tens of milliseconds.
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    let mut served = 0u64;
    loop {
        let request = match read_request(&mut stream, &mut carry, state.opts.idle_timeout) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean close or idle keep-alive expiry
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let body = Obj::new().str("error", &e.to_string()).build();
                let _ = write_response(&mut stream, 400, &body, ResponseOpts::close());
                return;
            }
            Err(_) => return, // truncated / timed out: nothing to answer
        };
        served += 1;
        state.requests.fetch_add(1, Ordering::Relaxed);
        // A panicking handler must cost one 500 response, not a pool
        // worker; a poisoned writer mutex is recovered at the next lock.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(state, &request)));
        let (status, body) = out.unwrap_or_else(|_| {
            (500, Obj::new().str("error", "internal error (handler panicked)").build())
        });
        // Draining is re-checked *after* the handler: a shutdown during
        // a long request downgrades this connection to close.
        let keep =
            request.keep_alive && served < state.opts.max_requests_per_conn && !state.draining();
        let opts = ResponseOpts {
            keep_alive: keep,
            // Every 503 — shed path aside — carries Retry-After, so
            // clients back off uniformly (drain, cancellation).
            retry_after_secs: (status == 503).then_some(state.opts.retry_after_secs),
        };
        if write_response(&mut stream, status, &body, opts).is_err() || !keep {
            return;
        }
    }
}

/// Maps a handler error to a response status: deadline exhaustion is
/// 504, cancellation (drain) is 503, an injected fault is a truthful
/// 500, and everything else is a client mistake (400).
fn error_reply(e: &FamError) -> (u16, String) {
    let status = match e {
        FamError::DeadlineExceeded { .. } => 504,
        FamError::Cancelled => 503,
        FamError::FaultInjected { .. } => 500,
        _ => 400,
    };
    (status, Obj::new().str("error", &e.to_string()).build())
}

/// Counts an error against a dataset's stats, then maps it.
fn dataset_error(stats: &DatasetStats, e: &FamError) -> (u16, String) {
    stats.rejected.fetch_add(1, Ordering::Relaxed);
    if matches!(e, FamError::DeadlineExceeded { .. }) {
        stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }
    error_reply(e)
}

fn route(state: &ServerState, req: &Request) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") | ("GET", "/help") => (
            200,
            Obj::new()
                .raw(
                    "endpoints",
                    "[\"GET /healthz\",\"GET /readyz\",\"GET /datasets\",\"GET /algos\",\
                     \"GET /solve?dataset=..&k=..&algo=..&deadline_ms=..\",\
                     \"GET /evaluate?dataset=..&selection=i,j,k\",\
                     \"POST /update?dataset=..\",\
                     \"POST /refine?dataset=..&epsilon=..&sigma=..\",\"GET /stats\"]",
                )
                .build(),
        ),
        ("GET", "/healthz") => healthz(state),
        ("GET", "/readyz") => readyz(state),
        ("GET", "/datasets") => list_datasets(state),
        ("GET", "/algos") => list_algos(),
        ("GET", "/solve") => solve(state, req),
        ("GET", "/evaluate") => evaluate(state, req),
        ("POST", "/update") => update(state, req),
        ("POST", "/refine") => refine(state, req),
        ("GET", "/stats") => stats(state),
        (
            _,
            "/healthz" | "/readyz" | "/datasets" | "/algos" | "/solve" | "/evaluate" | "/update"
            | "/refine" | "/stats" | "/",
        ) => (405, Obj::new().str("error", "method not allowed").build()),
        _ => (404, Obj::new().str("error", format!("no route `{}`", req.path).as_str()).build()),
    }
}

/// Renders `{"name":generation_id,..}` for every dataset.
fn generations_json(state: &ServerState) -> String {
    let mut obj = Obj::new();
    for (name, ds) in &state.datasets {
        obj = obj.num(name, ds.snapshot().id);
    }
    obj.build()
}

/// `GET /healthz` — liveness: 200 whenever the process answers at all.
fn healthz(state: &ServerState) -> (u16, String) {
    let body = Obj::new()
        .str("status", "ok")
        .num("uptime_ms", state.started.elapsed().as_millis() as u64)
        .raw("generations", &generations_json(state))
        .build();
    (200, body)
}

/// `GET /readyz` — readiness: every dataset is built with a published
/// generation (guaranteed after a successful bind) and the server is
/// not draining.
fn readyz(state: &ServerState) -> (u16, String) {
    let draining = state.draining();
    let body = Obj::new()
        .bool("ready", !draining)
        .bool("draining", draining)
        .num("datasets", state.datasets.len() as u64)
        .raw("generations", &generations_json(state))
        .build();
    (if draining { 503 } else { 200 }, body)
}

/// Looks a dataset up, or answers 404.
fn slot<'s>(state: &'s ServerState, req: &Request) -> Result<&'s DatasetSlot, (u16, String)> {
    let name = req.query.get("dataset").map(String::as_str).unwrap_or("");
    if name.is_empty() {
        return Err((400, Obj::new().str("error", "missing `dataset` parameter").build()));
    }
    state.datasets.get(name).ok_or_else(|| {
        (404, Obj::new().str("error", format!("unknown dataset `{name}`").as_str()).build())
    })
}

/// Builds the request's [`Deadline`] from `deadline_ms` (or the server
/// default); writers additionally attach the drain flag via
/// [`writer_deadline`].
fn parse_deadline(state: &ServerState, req: &Request) -> Result<Deadline, (u16, String)> {
    let ms = match req.query.get("deadline_ms") {
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(_) => {
                return Err((400, Obj::new().str("error", "malformed `deadline_ms`").build()))
            }
        },
        None => state.opts.default_deadline_ms,
    };
    Ok(ms.map_or_else(Deadline::none, |ms| Deadline::within(Duration::from_millis(ms))))
}

/// A writer's deadline: the request budget plus the drain flag, so
/// shutdown aborts in-progress generation builds (nothing published).
fn writer_deadline(state: &ServerState, req: &Request) -> Result<Deadline, (u16, String)> {
    Ok(parse_deadline(state, req)?.with_cancel(Arc::clone(&state.shutdown)))
}

fn dataset_summary(name: &str, gen: &Generation) -> String {
    let svc = &gen.service;
    Obj::new()
        .str("name", name)
        .num("generation", gen.id)
        .num("n_points", svc.n_points() as u64)
        .str("reduction", &svc.reduction_fingerprint())
        .num("source_points", svc.source_points() as u64)
        .num("n_samples", svc.n_samples() as u64)
        .num("dim", svc.dim() as u64)
        .raw("cache_k", &format!("[{},{}]", svc.cache_k().start(), svc.cache_k().end()))
        .float("achieved_epsilon", svc.achieved_epsilon())
        .num("updates", svc.updates())
        .build()
}

fn list_datasets(state: &ServerState) -> (u16, String) {
    let mut items = Vec::with_capacity(state.datasets.len());
    for (name, ds) in &state.datasets {
        items.push(dataset_summary(name, &ds.snapshot()));
    }
    (200, Obj::new().raw("datasets", &array_raw(&items)).build())
}

/// Query keys with a routing meaning of their own; everything else is
/// handed to the solver-parameter parser.
const RESERVED_QUERY_KEYS: &[&str] = &["dataset", "k", "algo", "deadline_ms"];

fn solve(state: &ServerState, req: &Request) -> (u16, String) {
    let ds = match slot(state, req) {
        Ok(ds) => ds,
        Err(e) => return e,
    };
    let deadline = match parse_deadline(state, req) {
        Ok(d) => d,
        Err(e) => return e,
    };
    let k: usize = match req.query.get("k").map(|v| v.parse()) {
        Some(Ok(k)) => k,
        _ => return (400, Obj::new().str("error", "missing or malformed `k`").build()),
    };
    let algo_name = req.query.get("algo").map(String::as_str).unwrap_or("add-greedy");
    // Every non-reserved query parameter is a solver parameter, parsed by
    // the same `SolverSpec` machinery the CLI's `--param key=val` uses.
    let pairs: Vec<(&str, &str)> = req
        .query
        .iter()
        .filter(|(key, _)| !RESERVED_QUERY_KEYS.contains(&key.as_str()))
        .map(|(key, value)| (key.as_str(), value.as_str()))
        .collect();
    let spec = match SolverSpec::parse(algo_name, k, &pairs) {
        Ok(spec) => spec,
        Err(e) => return dataset_error(&ds.stats, &e),
    };
    ds.stats.solve.fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    // Chaos hook: tests arm a Delay here to make request handling
    // deterministically slow (shedding and deadline assertions).
    if let Err(e) = failpoints::fail_point("serve.solve") {
        return dataset_error(&ds.stats, &e);
    }
    // Entry check: an already-expired budget (deadline_ms=0, or queueing
    // that outlived it) refuses before any work, cached or not.
    if let Err(e) = deadline.check() {
        return dataset_error(&ds.stats, &e);
    }
    let gen = ds.snapshot();
    match gen.service.solve_within(&spec, &deadline) {
        Ok((res, cached)) => {
            let counter = if cached { &ds.stats.cache_hits } else { &ds.stats.cache_misses };
            counter.fetch_add(1, Ordering::Relaxed);
            let body = Obj::new()
                .str("dataset", gen.service.name())
                .str("algo", &spec.name)
                .num("k", k as u64)
                .num("generation", gen.id)
                .bool("cached", cached)
                .raw("selection", &array_usize(&res.indices))
                .float("arr", res.arr)
                .num("micros", t0.elapsed().as_micros() as u64)
                .build();
            (200, body)
        }
        Err(e) => dataset_error(&ds.stats, &e),
    }
}

/// `GET /algos` — the solver registry with per-algorithm capabilities.
fn list_algos() -> (u16, String) {
    let mut items = Vec::new();
    for solver in Registry::global().iter() {
        let caps = solver.capabilities();
        let mut obj = Obj::new()
            .str("name", solver.name())
            .str("kind", if caps.exact { "exact" } else { "heuristic" })
            .bool("warm_start", caps.warm_start)
            .bool("range_harvest", caps.range_harvest)
            .bool("needs_dataset", caps.needs_dataset)
            .bool("reports_arr", caps.reports_arr)
            .bool("exponential", caps.exponential)
            .bool("needs_matrix", caps.needs_matrix)
            .str("reducible", caps.reducible.name());
        obj = match caps.dimension {
            Some(d) => obj.num("dimension", d as u64),
            None => obj.raw("dimension", "null"),
        };
        items.push(obj.build());
    }
    (200, Obj::new().raw("algos", &array_raw(&items)).build())
}

fn evaluate(state: &ServerState, req: &Request) -> (u16, String) {
    let ds = match slot(state, req) {
        Ok(ds) => ds,
        Err(e) => return e,
    };
    let raw = req.query.get("selection").map(String::as_str).unwrap_or("");
    let indices: Result<Vec<usize>, _> =
        raw.split(',').filter(|s| !s.is_empty()).map(|s| s.trim().parse::<usize>()).collect();
    let Ok(indices) = indices else {
        return (400, Obj::new().str("error", "malformed `selection` (want i,j,k)").build());
    };
    if indices.is_empty() {
        return (400, Obj::new().str("error", "missing `selection` parameter").build());
    }
    ds.stats.evaluate.fetch_add(1, Ordering::Relaxed);
    let gen = ds.snapshot();
    match gen.service.evaluate(&indices) {
        Ok(rep) => (
            200,
            Obj::new()
                .str("dataset", gen.service.name())
                .num("generation", gen.id)
                .raw("selection", &array_usize(&indices))
                .float("arr", rep.arr)
                .float("vrr", rep.vrr)
                .float("std_dev", rep.std_dev)
                .float("mrr", rep.mrr)
                .build(),
        ),
        Err(e) => dataset_error(&ds.stats, &e),
    }
}

fn update(state: &ServerState, req: &Request) -> (u16, String) {
    let ds = match slot(state, req) {
        Ok(ds) => ds,
        Err(e) => return e,
    };
    let deadline = match writer_deadline(state, req) {
        Ok(d) => d,
        Err(e) => return e,
    };
    let t0 = Instant::now();
    // One writer per dataset; readers keep serving the published
    // generation throughout. The whole build happens on a private copy
    // (its new scores included): any failure below simply discards it.
    let _turn = ds.writer_turn();
    let prev = ds.snapshot();
    let mut next = prev.service.clone();
    match next.apply_update_text_within(&req.body, "request body", &deadline) {
        Ok(summary) => {
            // Chaos hook: a failure between the successful build and the
            // swap must leave the old generation serving (the clone is
            // dropped here, unpublished).
            if let Err(e) = failpoints::fail_point("serve.publish") {
                return dataset_error(&ds.stats, &e);
            }
            let generation = prev.id + 1;
            ds.publish(Arc::new(Generation { id: generation, service: next }));
            ds.stats.updates.fetch_add(1, Ordering::Relaxed);
            let body = Obj::new()
                .str("dataset", req.query.get("dataset").map(String::as_str).unwrap_or(""))
                .num("generation", generation)
                .num("inserted", summary.inserted as u64)
                .num("deleted", summary.deleted as u64)
                .num("n_points", summary.n_points as u64)
                .num("cache_entries", summary.cache_entries as u64)
                .num("micros", t0.elapsed().as_micros() as u64)
                .build();
            (200, body)
        }
        Err(e) => dataset_error(&ds.stats, &e),
    }
}

/// `POST /refine?dataset=..&epsilon=E[&sigma=S]` — build a
/// precision-upgraded next generation off-lock and publish it.
fn refine(state: &ServerState, req: &Request) -> (u16, String) {
    let ds = match slot(state, req) {
        Ok(ds) => ds,
        Err(e) => return e,
    };
    let deadline = match writer_deadline(state, req) {
        Ok(d) => d,
        Err(e) => return e,
    };
    let epsilon: f64 = match req.query.get("epsilon").map(|v| v.parse()) {
        Some(Ok(e)) => e,
        _ => return (400, Obj::new().str("error", "missing or malformed `epsilon`").build()),
    };
    let sigma: f64 = match req.query.get("sigma").map(|v| v.parse()) {
        None => fam_core::DEFAULT_SIGMA,
        Some(Ok(s)) => s,
        Some(Err(_)) => return (400, Obj::new().str("error", "malformed `sigma`").build()),
    };
    let t0 = Instant::now();
    let _turn = ds.writer_turn();
    let prev = ds.snapshot();
    let mut next = prev.service.clone();
    match next.refine_within(epsilon, sigma, &deadline) {
        Ok(summary) => {
            // An already-satisfied refine changed nothing: skip the
            // publish (and the generation bump) entirely.
            let generation = if summary.already_satisfied {
                prev.id
            } else {
                if let Err(e) = failpoints::fail_point("serve.publish") {
                    return dataset_error(&ds.stats, &e);
                }
                let id = prev.id + 1;
                ds.publish(Arc::new(Generation { id, service: next }));
                id
            };
            let gen = ds.snapshot();
            let body = Obj::new()
                .str("dataset", gen.service.name())
                .num("generation", generation)
                .num("target_samples", summary.target_samples as u64)
                .num("n_samples", summary.n_samples as u64)
                .float("achieved_epsilon", summary.achieved_epsilon)
                .float("sigma", gen.service.sigma())
                .bool("already_satisfied", summary.already_satisfied)
                .num("cache_entries", summary.cache_entries as u64)
                .num("micros", t0.elapsed().as_micros() as u64)
                .build();
            (200, body)
        }
        Err(e) => dataset_error(&ds.stats, &e),
    }
}

fn stats(state: &ServerState) -> (u16, String) {
    let mut items = Vec::with_capacity(state.datasets.len());
    for (name, ds) in &state.datasets {
        let gen = ds.snapshot();
        let svc = &gen.service;
        let mut obj = Obj::new()
            .str("name", name)
            .num("generation", gen.id)
            .num("n_points", svc.n_points() as u64)
            .str("reduction", &svc.reduction_fingerprint())
            .num("source_points", svc.source_points() as u64);
        if let Some(s) = svc.reduce_stats() {
            obj = obj
                .float("reduce_max_shortfall", s.max_shortfall)
                .float("reduce_mean_shortfall", s.mean_shortfall);
        }
        items.push(
            obj.num("n_samples", svc.n_samples() as u64)
                .num("seed", svc.seed())
                .float("sigma", svc.sigma())
                .float("achieved_epsilon", svc.achieved_epsilon())
                .num("solve_requests", ds.stats.solve.load(Ordering::Relaxed))
                .num("cache_hits", ds.stats.cache_hits.load(Ordering::Relaxed))
                .num("cache_misses", ds.stats.cache_misses.load(Ordering::Relaxed))
                .num("evaluate_requests", ds.stats.evaluate.load(Ordering::Relaxed))
                .num("updates", svc.updates())
                .num("refines", svc.refines())
                .num("rejected", ds.stats.rejected.load(Ordering::Relaxed))
                .num("deadline_exceeded", ds.stats.deadline_exceeded.load(Ordering::Relaxed))
                .build(),
        );
    }
    let body = Obj::new()
        .num("uptime_ms", state.started.elapsed().as_millis() as u64)
        .num("requests", state.requests.load(Ordering::Relaxed))
        .num("workers", state.opts.workers as u64)
        .num("max_pending", state.opts.max_pending as u64)
        .num("shed", state.shed.load(Ordering::Relaxed))
        .bool("draining", state.draining())
        .raw("datasets", &array_raw(&items))
        .build();
    (200, body)
}
