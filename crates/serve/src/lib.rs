//! `recopack serve`: the long-running solver service.
//!
//! Turns the one-shot solvers of `recopack-core` into an online system in
//! the shape real reconfigurable-device managers take (van der Veen et al.,
//! Angermeier et al.): a daemon that accepts solve jobs over HTTP, runs
//! them on a bounded worker pool, and exposes its internals through
//! standard observability endpoints.
//!
//! | Endpoint              | Method | Purpose                                      |
//! |-----------------------|--------|----------------------------------------------|
//! | `/jobs`               | POST   | submit an Opp/Bmp/Spp/Pareto instance        |
//! | `/jobs:batch`         | POST   | submit an array of instances in one request  |
//! | `/jobs`               | GET    | list all known jobs                          |
//! | `/jobs/{id}`          | GET    | job status + [`SolveReport`] on completion   |
//! | `/jobs/{id}`          | DELETE | cancel (cooperative, via [`SolveHandle`])    |
//! | `/jobs/{id}/progress` | GET    | live progress snapshot (nodes, phases, rate) |
//! | `/jobs/{id}/events`   | GET    | chunked NDJSON search-event stream (opt-in)  |
//! | `/debug/jobs`         | GET    | flight recorder: recent + slow job summaries |
//! | `/debug/profile`      | GET    | on-demand sampling profile of the worker pool |
//! | `/healthz`            | GET    | liveness + readiness (queue not saturated)   |
//! | `/metrics`            | GET    | Prometheus text exposition v0.0.4            |
//!
//! Jobs are submitted as JSON (bodies are parsed with `recopack-json`, the
//! workspace's dependency-free reader):
//!
//! ```json
//! {"kind": "opp", "instance": "chip 4 4\nhorizon 2\ntask a 2 2 2\n",
//!  "node_limit": 1000000, "time_limit_ms": 5000, "threads": 2}
//! ```
//!
//! Connections are persistent HTTP/1.1 with pipelining: a per-connection
//! request loop honors `Connection:` headers, idles out after
//! [`ServeConfig::idle_timeout`], and the acceptor bounds the number of
//! simultaneously open connections (see [`ServeConfig::max_connections`]).
//!
//! Finished deterministic results are memoized in a canonicalized-instance
//! solution cache (see [`cache`]): resubmitting a structurally identical
//! instance — even with renamed or reordered tasks — answers from the
//! cache with the byte-identical report and a placement rendered with the
//! *resubmission's* task names, and identical submissions that are
//! already *in flight* attach to the running solve instead of starting a
//! second one. Terminal jobs stay queryable until 4096 newer ones retire
//! (older ids answer `404`), keeping the job table bounded under
//! sustained traffic.
//!
//! The server logs one NDJSON object per request and per job transition to
//! stderr, and drains gracefully on SIGTERM/ctrl-c: in-flight and queued
//! jobs finish, new submissions are refused with 503, and the final metric
//! values are flushed to the log before exit.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod http;
mod profile;
mod progress;
mod recorder;
mod signal;

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

use recopack_core::beacon::{self, Phase as BeaconPhase, ProfileBuilder};
use recopack_core::telemetry::push_json_str;
use recopack_core::{
    pareto_front_with_stats, per_second, Bmp, LimitKind, Opp, PruneRule, SolveHandle, SolveOutcome,
    SolveReport, SolverConfig, SolverStats, Spp, Telemetry,
};
use recopack_json::Json;
use recopack_metrics::{Counter, Gauge, Histogram, Registry};
use recopack_model::{format, Instance, Placement};

use cache::{CachedSolution, SolutionCache};
use progress::{EventStream, JobProgress};
use recorder::{FlightRecorder, JobSummary};
pub use signal::{install_shutdown_handler, shutdown_requested};

/// Configuration of one [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`. Port `0` binds an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Solver worker threads draining the job queue. `0` uses the hardware
    /// parallelism.
    pub workers: usize,
    /// Capacity of the bounded job queue; submissions beyond it are
    /// rejected with `503` and counted in `recopack_jobs_rejected_total`.
    pub queue_depth: usize,
    /// Maximum simultaneously open HTTP connections; further connects are
    /// answered `503` and closed (counted in
    /// `recopack_http_connections_rejected_total`).
    pub max_connections: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Capacity of the canonicalized-instance solution cache (entries).
    pub cache_capacity: usize,
    /// Jobs whose solve wall time reaches this many milliseconds are kept
    /// in the flight recorder's slow-job log and emit a `job_slow` log
    /// line. `0` disables slow-job tracking.
    pub slow_job_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            queue_depth: 16,
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            cache_capacity: 256,
            slow_job_ms: 1000,
        }
    }
}

/// The problem family a job asks to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Opp,
    Bmp,
    Spp,
    Pareto,
}

impl JobKind {
    const ALL: [JobKind; 4] = [JobKind::Opp, JobKind::Bmp, JobKind::Spp, JobKind::Pareto];

    fn name(self) -> &'static str {
        match self {
            JobKind::Opp => "opp",
            JobKind::Bmp => "bmp",
            JobKind::Spp => "spp",
            JobKind::Pareto => "pareto",
        }
    }

    fn index(self) -> usize {
        match self {
            JobKind::Opp => 0,
            JobKind::Bmp => 1,
            JobKind::Spp => 2,
            JobKind::Pareto => 3,
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Label values of `recopack_jobs_rejected_total`: the four job kinds plus
/// `unknown` for requests refused before a kind could be determined. A
/// closed set — see the cardinality policy in `recopack-metrics`.
const REJECT_KINDS: [&str; 5] = ["opp", "bmp", "spp", "pareto", "unknown"];

/// Index of the `unknown` slot in [`REJECT_KINDS`].
const REJECT_UNKNOWN: usize = 4;

/// Everything the worker needs to run a job.
struct JobSpec {
    instance: Instance,
    config: SolverConfig,
    /// Canonical permutation of `instance` — kept with the spec (not the
    /// job) because an heir with a different task order can inherit it:
    /// the produced placement is indexed by *this* instance's task order
    /// and must be re-indexed with *this* permutation.
    rank: Vec<u32>,
}

/// Lifecycle of a submitted job.
enum JobState {
    Queued,
    Running,
    Finished {
        /// `done`, `cancelled`, or `failed`.
        status: &'static str,
        outcome: String,
        /// The schema-3 [`SolveReport`] JSON, when the solver produced
        /// statistics.
        report: Option<String>,
        /// The placement in the text format of `recopack_model::format`,
        /// for feasible decision problems and optimization optima.
        placement: Option<String>,
    },
}

struct Job {
    kind: JobKind,
    name: String,
    state: JobState,
    /// Taken by the worker when the job starts. Only the dedup group's
    /// *driver* holds a spec; joined members share the driver's run.
    spec: Option<JobSpec>,
    /// The canonicalized cache key — the identity of this job's dedup
    /// group (see [`cache`]).
    key: String,
    /// This submission's task names, in task-index order. Shared and
    /// cached placements are stored name-free by canonical position; each
    /// job renders its own `place` lines from them with these names.
    task_names: Vec<String>,
    /// `rank[v]` is the canonical position of this submission's task `v`
    /// in the cache key (see [`cache::CanonicalInstance`]).
    rank: Vec<u32>,
    /// Correlation id of the HTTP request that submitted this job; echoed
    /// in the job document and every job-transition log line.
    request_id: String,
    /// Live progress of this job: the shared solve handle of its dedup
    /// group plus this submission's own queue/solve phase timing.
    progress: Arc<JobProgress>,
    /// Search-event broadcast for `GET /jobs/{id}/events`; `Some` only for
    /// jobs submitted with `"trace": true` (members of a traced dedup
    /// group share the driver's stream).
    trace: Option<Arc<EventStream>>,
}

/// One deduplicated solver run: every job id subscribed to it, plus the
/// solve handle wired into the driver's [`SolverConfig`]. The handle is
/// cancelled only when the *last* member unsubscribes.
struct InFlight {
    members: Vec<u64>,
    handle: SolveHandle,
    /// Unique id of this group. When the last member of a *running* group
    /// cancels, the entry is retired immediately so identical submissions
    /// start fresh instead of joining a cancelled run; the finishing
    /// worker compares this id and leaves any successor entry that has
    /// since claimed the same key untouched.
    group: u64,
}

/// Upper bound on terminal jobs kept queryable in the job table. Under
/// sustained cache-hit traffic every submission finishes at line rate, so
/// without eviction the table would grow without bound; evicted job ids
/// answer `404` like unknown ones.
const FINISHED_RETENTION: usize = 4096;

/// Job table, queue, and in-flight dedup groups, guarded by one mutex so
/// queue membership, group membership, and job state can never disagree.
#[derive(Default)]
struct State {
    jobs: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    inflight: HashMap<String, InFlight>,
    /// Terminal job ids in retirement order, oldest first; the tail of the
    /// bounded retention window (see [`FINISHED_RETENTION`]).
    finished: VecDeque<u64>,
    draining: bool,
}

/// Records that job `id` reached a terminal state and evicts the oldest
/// finished jobs beyond [`FINISHED_RETENTION`]. Every transition into
/// [`JobState::Finished`] must pass through here exactly once.
fn retire_job(st: &mut State, id: u64) {
    st.finished.push_back(id);
    while st.finished.len() > FINISHED_RETENTION {
        if let Some(old) = st.finished.pop_front() {
            st.jobs.remove(&old);
        }
    }
}

/// Every metric family the service exposes. Names are fixed at startup;
/// labels come from the closed [`JobKind`]/[`REJECT_KINDS`] enumerations.
struct ServerMetrics {
    registry: Registry,
    accepted: [Counter; 4],
    completed: [Counter; 4],
    cancelled: [Counter; 4],
    failed: [Counter; 4],
    rejected: [Counter; 5],
    queue_depth: Gauge,
    in_flight: Gauge,
    queue_wait: Histogram,
    solve: Histogram,
    canon_seconds: Histogram,
    nodes: Histogram,
    searches: Counter,
    solver_nodes: Counter,
    propagation_events: Counter,
    prunes: [Counter; 4],
    cache_hits: Counter,
    cache_misses: Counter,
    dedup_joins: Counter,
    cache_entries: Gauge,
    connections_open: Gauge,
    connections_total: Counter,
    connections_rejected: Counter,
    request_seconds: Histogram,
    phase_occupancy: [Gauge; 6],
    workers_stalled: Gauge,
    uptime: Gauge,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        // Info-style gauge: the value is always 1, the payload is the labels.
        registry
            .gauge_with(
                "recopack_build_info",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("rustc", env!("RECOPACK_RUSTC")),
                    (
                        "profile",
                        if cfg!(debug_assertions) {
                            "debug"
                        } else {
                            "release"
                        },
                    ),
                ],
                "Build metadata carried as labels; the value is always 1.",
            )
            .set(1);
        let per_kind = |name: &str, help: &str| {
            JobKind::ALL.map(|k| registry.counter_with(name, &[("kind", k.name())], help))
        };
        let accepted = per_kind(
            "recopack_jobs_accepted_total",
            "Jobs admitted to the queue, by kind.",
        );
        let completed = per_kind(
            "recopack_jobs_completed_total",
            "Jobs that ran to a verdict (including budget exhaustion), by kind.",
        );
        let cancelled = per_kind(
            "recopack_jobs_cancelled_total",
            "Jobs cancelled via DELETE /jobs/{id}, by kind.",
        );
        let failed = per_kind(
            "recopack_jobs_failed_total",
            "Jobs whose optimization goal was unreachable, by kind.",
        );
        let rejected = REJECT_KINDS.map(|k| {
            registry.counter_with(
                "recopack_jobs_rejected_total",
                &[("kind", k)],
                "Submissions refused (malformed, queue full, draining), by kind.",
            )
        });
        Self {
            accepted,
            completed,
            cancelled,
            failed,
            rejected,
            queue_depth: registry
                .gauge("recopack_queue_depth", "Jobs waiting in the bounded queue."),
            in_flight: registry.gauge(
                "recopack_jobs_in_flight",
                "Jobs currently being solved by the worker pool.",
            ),
            queue_wait: registry.histogram(
                "recopack_job_queue_wait_seconds",
                &[0.0005, 0.002, 0.01, 0.05, 0.25, 1.0, 5.0, 30.0],
                "Time jobs waited in the queue before their solve started, in seconds.",
            ),
            solve: registry.histogram(
                "recopack_job_solve_seconds",
                &[0.001, 0.005, 0.025, 0.1, 0.5, 2.0, 10.0, 30.0, 120.0],
                "Wall-clock solver duration of completed jobs in seconds.",
            ),
            canon_seconds: registry.histogram(
                "recopack_cache_canonicalization_seconds",
                &[0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0],
                "Time spent canonicalizing a submitted instance for its cache key, in seconds.",
            ),
            nodes: registry.histogram(
                "recopack_job_nodes",
                &[
                    10.0,
                    100.0,
                    1_000.0,
                    10_000.0,
                    100_000.0,
                    1_000_000.0,
                    10_000_000.0,
                ],
                "Search nodes explored per job.",
            ),
            searches: registry.counter(
                "recopack_searches_total",
                "Completed branch-and-bound searches (one per exact decision).",
            ),
            solver_nodes: registry.counter(
                "recopack_solver_nodes_total",
                "Search nodes explored across all jobs.",
            ),
            propagation_events: registry.counter(
                "recopack_solver_propagation_events_total",
                "Propagation-queue events processed across all jobs.",
            ),
            prunes: PruneRule::ALL.map(|rule| {
                registry.counter_with(
                    "recopack_solver_prunes_total",
                    &[("rule", rule.name())],
                    "Subtrees refuted, by propagation rule.",
                )
            }),
            cache_hits: registry.counter(
                "recopack_cache_hits_total",
                "Submissions answered from the canonicalized solution cache.",
            ),
            cache_misses: registry.counter(
                "recopack_cache_misses_total",
                "Submissions that started a fresh solver run.",
            ),
            dedup_joins: registry.counter(
                "recopack_jobs_deduplicated_total",
                "Submissions that attached to an identical in-flight run.",
            ),
            cache_entries: registry.gauge(
                "recopack_cache_entries",
                "Solutions currently held by the bounded LRU cache.",
            ),
            connections_open: registry.gauge(
                "recopack_http_connections_open",
                "HTTP connections currently being served.",
            ),
            connections_total: registry.counter(
                "recopack_http_connections_total",
                "HTTP connections accepted since startup.",
            ),
            connections_rejected: registry.counter(
                "recopack_http_connections_rejected_total",
                "Connections refused at the configured connection limit.",
            ),
            request_seconds: registry.histogram(
                "recopack_http_request_duration_seconds",
                &[0.0005, 0.002, 0.01, 0.05, 0.25, 1.0, 5.0],
                "HTTP request handling latency in seconds.",
            ),
            phase_occupancy: BeaconPhase::ALL.map(|phase| {
                registry.gauge_with(
                    "recopack_worker_phase_occupancy",
                    &[("phase", phase.name())],
                    "Share of sampled worker time spent in each solver phase over \
                     the last sampling window, in percent.",
                )
            }),
            workers_stalled: registry.gauge(
                "recopack_workers_stalled",
                "Workers whose activity beacon did not change for the stall \
                 threshold during the last sampling window.",
            ),
            uptime: registry.gauge(
                "recopack_uptime_seconds",
                "Seconds since the server process started.",
            ),
            registry,
        }
    }
}

struct Inner {
    state: Mutex<State>,
    work_available: Condvar,
    queue_capacity: usize,
    max_connections: usize,
    idle_timeout: Duration,
    cache: Mutex<SolutionCache>,
    metrics: ServerMetrics,
    recorder: FlightRecorder,
    next_id: AtomicU64,
    next_group: AtomicU64,
    /// Source of generated `X-Request-Id` values for requests that did
    /// not supply a usable one.
    next_request: AtomicU64,
    accept_stop: AtomicBool,
    /// When the server was bound; drives `recopack_uptime_seconds`.
    started: Instant,
    /// Single-flight gate for `GET /debug/profile` captures.
    profiler: profile::ProfilerGate,
}

/// One NDJSON log line on stderr: `{"t_ms":...,"event":...,...}`.
struct LogLine {
    buf: String,
}

impl LogLine {
    fn new(event: &str) -> Self {
        let t_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let mut buf = format!("{{\"t_ms\":{t_ms},\"event\":");
        push_json_str(&mut buf, event);
        Self { buf }
    }

    fn str(mut self, key: &str, value: &str) -> Self {
        self.buf.push(',');
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
        push_json_str(&mut self.buf, value);
        self
    }

    fn num(mut self, key: &str, value: u64) -> Self {
        self.buf.push(',');
        push_json_str(&mut self.buf, key);
        use std::fmt::Write as _;
        let _ = write!(self.buf, ":{value}");
        self
    }

    fn ms(mut self, key: &str, value: f64) -> Self {
        self.buf.push(',');
        push_json_str(&mut self.buf, key);
        use std::fmt::Write as _;
        let _ = write!(self.buf, ":{value:.3}");
        self
    }

    fn emit(mut self) {
        self.buf.push('}');
        eprintln!("{}", self.buf);
    }
}

/// A running solver service: an HTTP acceptor plus a pool of solver
/// workers over one bounded job queue.
///
/// Lifecycle: [`bind`](Server::bind) starts everything,
/// [`shutdown`](Server::shutdown) begins the graceful drain (accepted jobs
/// finish, new submissions are refused), [`join`](Server::join) waits for
/// the drain and stops the acceptor. [`run_until`](Server::run_until)
/// bundles the three for the CLI.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    workers: Vec<std::thread::JoinHandle<()>>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the worker pool and the acceptor.
    pub fn bind(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = ServerMetrics::new();
        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            work_available: Condvar::new(),
            queue_capacity: config.queue_depth.max(1),
            max_connections: config.max_connections.max(1),
            idle_timeout: config.idle_timeout.max(Duration::from_millis(10)),
            cache: Mutex::new(SolutionCache::new(config.cache_capacity.max(1))),
            metrics,
            recorder: FlightRecorder::new(Duration::from_millis(config.slow_job_ms)),
            next_id: AtomicU64::new(1),
            next_group: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
            accept_stop: AtomicBool::new(false),
            started: Instant::now(),
            profiler: profile::ProfilerGate::default(),
        });
        let worker_count = match config.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        let workers = (0..worker_count)
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let acceptor = {
            let inner = inner.clone();
            std::thread::spawn(move || accept_loop(&inner, listener))
        };
        // Low-rate beacon sampler feeding the phase-occupancy and stall
        // gauges. Holds only a Weak so it cannot outlive the drain; the
        // thread is detached and exits within one window of the last drop.
        {
            let weak = Arc::downgrade(&inner);
            let _ = std::thread::Builder::new()
                .name("recopack-occupancy".to_string())
                .spawn(move || occupancy_sampler_loop(&weak));
        }
        LogLine::new("listening")
            .str("addr", &addr.to_string())
            .num("workers", worker_count as u64)
            .num("queue_depth", inner.queue_capacity as u64)
            .emit();
        Ok(Server {
            inner,
            addr,
            workers,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (relevant when the config asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins the graceful drain: queued and running jobs finish, new
    /// submissions are refused with `503`, `/healthz` reports draining.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().expect("state lock");
            if st.draining {
                return;
            }
            st.draining = true;
        }
        self.inner.work_available.notify_all();
        LogLine::new("shutdown").str("phase", "drain").emit();
    }

    /// Waits for the workers to drain the queue, then stops the acceptor
    /// and flushes the final metric values to the log. Call
    /// [`shutdown`](Server::shutdown) first, or this blocks until someone
    /// does.
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.inner.accept_stop.store(true, Ordering::Relaxed);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor blocks in `accept` (no polling), so wake it
            // with one throwaway local connection; it re-checks
            // `accept_stop` on every wakeup. If the wake cannot connect
            // (exotic network config), the handle is dropped instead of
            // joined — a leaked parked thread beats a deadlocked drain.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    std::net::IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    std::net::IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = acceptor.join();
            }
        }
        let exposition = self.inner.metrics.registry.render();
        LogLine::new("metrics_flushed")
            .num("bytes", exposition.len() as u64)
            .emit();
        eprint!("{exposition}");
    }

    /// Serves until `stop` becomes true (typically the flag returned by
    /// [`install_shutdown_handler`]), then drains and exits. With the
    /// signal flag this parks on the handler's self-pipe and wakes the
    /// instant a signal arrives; a foreign flag falls back to a coarse
    /// poll (see `signal::wait_for_shutdown`).
    pub fn run_until(self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            signal::wait_for_shutdown(stop);
        }
        self.shutdown();
        self.join();
    }
}

/// One solver worker: pop a job, run it, record the outcome — until the
/// queue is empty *and* the server is draining.
fn worker_loop(inner: &Inner) {
    loop {
        let mut st = inner.state.lock().expect("state lock");
        let id = loop {
            if let Some(id) = st.queue.pop_front() {
                break id;
            }
            if st.draining {
                return;
            }
            st = inner.work_available.wait(st).expect("state lock");
        };
        inner.metrics.queue_depth.dec();
        let job = st.jobs.get_mut(&id).expect("queued job exists");
        if !matches!(job.state, JobState::Queued) {
            // Cancelled while queued; its terminal state is already set.
            continue;
        }
        job.state = JobState::Running;
        let kind = job.kind;
        let name = job.name.clone();
        let spec = job.spec.take().expect("queued job has a spec");
        let key = job.key.clone();
        // Every member of the dedup group is now running this solve. The
        // group id identifies *this* group at publish time: if the run is
        // cancelled mid-flight the entry is retired early and a fresh
        // group may reuse the key.
        let (members, group) = st
            .inflight
            .get(&key)
            .map(|group| (group.members.clone(), group.group))
            .unwrap_or((vec![id], 0));
        let mut progresses = Vec::with_capacity(members.len());
        for &member in &members {
            if let Some(job) = st.jobs.get_mut(&member) {
                job.state = JobState::Running;
                progresses.push(job.progress.clone());
            }
        }
        let trace = st.jobs.get(&id).and_then(|job| job.trace.clone());
        let request_id = st
            .jobs
            .get(&id)
            .map(|job| job.request_id.clone())
            .unwrap_or_default();
        drop(st);

        for progress in &progresses {
            progress.mark_started();
        }
        // One queue-wait sample per solver run (the driver's); joined
        // members waited on the same slot.
        if let Some(driver) = progresses.first() {
            inner.metrics.queue_wait.observe(driver.split().0);
        }
        inner.metrics.in_flight.inc();
        LogLine::new("job_started")
            .num("job", id)
            .str("kind", kind.name())
            .str("request_id", &request_id)
            .num("subscribers", members.len().max(1) as u64)
            .emit();
        let started = Instant::now();
        let finished = run_job(kind, &name, &spec);
        let wall = started.elapsed();
        // The handle now holds the run's exact totals. They reach the
        // solver counters before any member is published as terminal, so
        // a client that sees the job finished and then scrapes reads them.
        let run = spec.config.handle.progress();
        inner.metrics.searches.add(run.searches_finished);
        inner.metrics.solver_nodes.add(run.nodes);
        inner.metrics.propagation_events.add(run.propagation_events);
        for (counter, &conflicts) in inner.metrics.prunes.iter().zip(&run.conflicts) {
            counter.add(conflicts);
        }
        inner.metrics.in_flight.dec();
        inner.metrics.solve.observe(wall.as_secs_f64());
        inner.metrics.nodes.observe(run.nodes as f64);
        LogLine::new("job_finished")
            .num("job", id)
            .str("kind", kind.name())
            .str("request_id", &request_id)
            .str("status", finished.status)
            .str("outcome", &finished.outcome)
            .ms("wall_ms", wall.as_secs_f64() * 1000.0)
            .num("nodes", run.nodes)
            .emit();

        // Re-index the placement from the driver's task order into
        // canonical positions: subscribers (and future cache hits) carry
        // their own task names and render their own `place` lines.
        let canon_placement = finished.placement.as_ref().map(|origins| {
            let mut canon = vec![[0u64; 3]; origins.len()];
            for (v, origin) in origins.iter().enumerate() {
                canon[spec.rank[v] as usize] = *origin;
            }
            canon
        });

        // Fill the cache *before* publishing the finished state: any
        // client that observes the job as done is then guaranteed that an
        // identical resubmission hits.
        if finished.cacheable {
            let mut cache = inner.cache.lock().expect("cache lock");
            cache.insert(
                key.clone(),
                CachedSolution {
                    status: finished.status,
                    outcome: finished.outcome.clone(),
                    report: finished.report.clone(),
                    placement: canon_placement.clone(),
                },
            );
            inner.metrics.cache_entries.set(cache.len() as i64);
        }

        let mut st = inner.state.lock().expect("state lock");
        // Retire the in-flight entry only if it is still *our* group: a
        // cancel of the last member mid-run removes it early, and an
        // identical submission may have installed a successor group under
        // the same key since — that one must keep running undisturbed.
        let members = if st.inflight.get(&key).is_some_and(|g| g.group == group) {
            st.inflight.remove(&key).expect("checked above").members
        } else {
            members
        };
        let mut published = Vec::with_capacity(members.len());
        for &member in &members {
            let Some(job) = st.jobs.get_mut(&member) else {
                continue;
            };
            if matches!(job.state, JobState::Finished { .. }) {
                continue;
            }
            job.state = JobState::Finished {
                status: finished.status,
                outcome: finished.outcome.clone(),
                report: finished.report.clone(),
                placement: canon_placement
                    .as_ref()
                    .map(|origins| render_placement(origins, &job.task_names, &job.rank)),
            };
            published.push((
                member,
                job.name.clone(),
                job.request_id.clone(),
                job.progress.clone(),
            ));
            retire_job(&mut st, member);
            match finished.status {
                "cancelled" => inner.metrics.cancelled[kind.index()].inc(),
                "failed" => inner.metrics.failed[kind.index()].inc(),
                _ => inner.metrics.completed[kind.index()].inc(),
            }
        }
        drop(st);

        for (member, member_name, member_request, progress) in published {
            progress.mark_finished();
            let (queue_wait, solve) = progress.split();
            let slow = inner.recorder.record(JobSummary {
                id: member,
                kind: kind.name(),
                name: member_name,
                status: finished.status,
                outcome: finished.outcome.clone(),
                via: if member == id { "run" } else { "shared" },
                request_id: member_request.clone(),
                queue_wait_ms: queue_wait * 1000.0,
                solve_ms: solve * 1000.0,
                nodes: run.nodes,
            });
            if slow {
                LogLine::new("job_slow")
                    .num("job", member)
                    .str("kind", kind.name())
                    .str("request_id", &member_request)
                    .ms("solve_ms", solve * 1000.0)
                    .num("nodes", run.nodes)
                    .emit();
            }
        }
        // Close the event stream only after the terminal state is
        // published: subscriber loops drain once more after observing a
        // terminal status, so every recorded event is delivered.
        if let Some(trace) = trace {
            trace.close();
        }
    }
}

/// Renders the `place` lines of a name-free canonical placement with one
/// job's own task names: task `v` gets the box at canonical position
/// `rank[v]`. Byte-identical to `format::format_placement` for the
/// submission whose solve produced the placement.
fn render_placement(origins: &[[u64; 3]], task_names: &[String], rank: &[u32]) -> String {
    let mut out = String::new();
    for (v, name) in task_names.iter().enumerate() {
        let [x, y, t] = origins[rank[v] as usize];
        use std::fmt::Write as _;
        let _ = writeln!(out, "place {name} {x} {y} {t}");
    }
    out
}

/// Terminal result of one executed job.
struct FinishedJob {
    status: &'static str,
    outcome: String,
    report: Option<String>,
    /// Box origins in the task-index order of the solved instance; the
    /// worker re-indexes them into canonical positions before caching or
    /// publishing, so every subscriber renders its own task names.
    placement: Option<Vec<[u64; 3]>>,
    /// Whether the result is deterministic and complete — a real verdict,
    /// not a budget exhaustion or cancellation — and thus safe to memoize
    /// for identical future submissions.
    cacheable: bool,
}

/// Runs one job to completion on the calling worker thread.
fn run_job(kind: JobKind, name: &str, spec: &JobSpec) -> FinishedJob {
    let started = Instant::now();
    let threads = spec.config.threads;
    let report_for = |outcome: &str, decisions: u32, stats: &SolverStats| {
        let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        let per_sec = |count: u64| per_second(count, wall_ms);
        SolveReport {
            command: kind.name().to_string(),
            instance: name.to_string(),
            outcome: outcome.to_string(),
            threads,
            decisions,
            wall_ms,
            nodes_per_sec: per_sec(stats.nodes),
            propagation_events_per_sec: per_sec(stats.propagation_events),
            stats: stats.clone(),
            journal_dropped: None,
        }
        .to_json()
    };
    match kind {
        JobKind::Opp => {
            let (outcome, stats) = Opp::new(&spec.instance)
                .with_config(spec.config.clone())
                .solve_with_stats();
            let label = match &outcome {
                SolveOutcome::Feasible(_) => "feasible".to_string(),
                SolveOutcome::Infeasible(_) => "infeasible".to_string(),
                SolveOutcome::ResourceLimit(LimitKind::Cancelled) => "cancelled".to_string(),
                SolveOutcome::ResourceLimit(limit) => format!("{limit} reached"),
            };
            let status = match &outcome {
                SolveOutcome::ResourceLimit(LimitKind::Cancelled) => "cancelled",
                _ => "done",
            };
            let placement = outcome.placement().map(placement_origins);
            let cacheable = matches!(
                outcome,
                SolveOutcome::Feasible(_) | SolveOutcome::Infeasible(_)
            );
            FinishedJob {
                status,
                report: Some(report_for(&label, 1, &stats)),
                outcome: label,
                placement,
                cacheable,
            }
        }
        JobKind::Bmp => match Bmp::new(&spec.instance)
            .with_config(spec.config.clone())
            .solve()
        {
            Some(result) => {
                let label = format!("side {}", result.side);
                FinishedJob {
                    status: "done",
                    report: Some(report_for(&label, result.decisions, &result.stats)),
                    outcome: label,
                    placement: Some(placement_origins(&result.placement)),
                    cacheable: true,
                }
            }
            None => unresolved(
                &spec.config.handle,
                "no chip admits the deadline or a budget ran out",
            ),
        },
        JobKind::Spp => match Spp::new(&spec.instance)
            .with_config(spec.config.clone())
            .solve()
        {
            Some(result) => {
                let label = format!("makespan {}", result.makespan);
                FinishedJob {
                    status: "done",
                    report: Some(report_for(&label, result.decisions, &result.stats)),
                    outcome: label,
                    placement: Some(placement_origins(&result.placement)),
                    cacheable: true,
                }
            }
            None => unresolved(
                &spec.config.handle,
                "no horizon fits the chip spatially or a budget ran out",
            ),
        },
        JobKind::Pareto => match pareto_front_with_stats(&spec.instance, &spec.config) {
            Some((front, stats, decisions)) => {
                let label = format!("{} pareto points", front.len());
                FinishedJob {
                    status: "done",
                    report: Some(report_for(&label, decisions, &stats)),
                    outcome: label,
                    placement: None,
                    cacheable: true,
                }
            }
            None => unresolved(&spec.config.handle, "a budget ran out during the sweep"),
        },
    }
}

/// The box origins of a placement, in the task-index order of the solved
/// instance.
fn placement_origins(placement: &Placement) -> Vec<[u64; 3]> {
    placement.boxes().iter().map(|b| b.origin).collect()
}

/// An optimization solver returned no result: either the job's handle was
/// cancelled, or the goal is unreachable within the budgets.
fn unresolved(handle: &SolveHandle, message: &str) -> FinishedJob {
    let (status, outcome) = if handle.is_cancelled() {
        ("cancelled", "cancelled")
    } else {
        ("failed", message)
    };
    FinishedJob {
        status,
        outcome: outcome.to_string(),
        report: None,
        placement: None,
        cacheable: false,
    }
}

/// Accepts connections until told to stop; each connection is handled on
/// its own thread so a slow client cannot stall the health or metrics
/// endpoints. The accept is *blocking* — an idle server sleeps in the
/// kernel and a new connection is dispatched immediately, instead of the
/// old nonblocking poll that added up to 20 ms of latency per request.
/// [`Server::join`] unblocks a parked accept with a wake connection.
fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    loop {
        if inner.accept_stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if inner.accept_stop.load(Ordering::Relaxed) {
                    // The wake connection from `join`; drop it and exit.
                    return;
                }
                if inner.metrics.connections_open.get() >= inner.max_connections as i64 {
                    // Over the connection budget: answer once and close,
                    // briefly, on the acceptor thread itself.
                    inner.metrics.connections_rejected.inc();
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    http::respond(
                        &mut stream,
                        503,
                        "application/json",
                        &error_body("connection limit reached"),
                        false,
                    );
                    continue;
                }
                inner.metrics.connections_total.inc();
                inner.metrics.connections_open.inc();
                let inner = inner.clone();
                std::thread::spawn(move || {
                    handle_connection(&inner, stream);
                    inner.metrics.connections_open.dec();
                });
            }
            // Transient accept failures (connection reset in the backlog,
            // fd exhaustion): back off briefly instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Serves one connection: a keep-alive request loop that ends when the
/// peer closes, the negotiated semantics say close, the idle timeout
/// expires, or a protocol error leaves the stream unframed.
fn handle_connection(inner: &Inner, stream: TcpStream) {
    const JSON: &str = "application/json";
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.idle_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut conn = http::Conn::new(stream);
    loop {
        match conn.read_next() {
            http::Next::Closed => return,
            http::Next::Error {
                status,
                message,
                keep_alive,
            } => {
                conn.respond(status, JSON, &error_body(&message), keep_alive, None);
                LogLine::new("request_error")
                    .num("status", u64::from(status))
                    .str("error", &message)
                    .emit();
                if !keep_alive {
                    return;
                }
            }
            http::Next::Request(request) => {
                let started = Instant::now();
                let request_id = request_id_for(inner, request.request_id.as_deref());
                // `GET /jobs/{id}/events` streams a chunked response and
                // owns the connection until the job is terminal; all other
                // routes produce one framed body.
                let events_target = (request.method == "GET")
                    .then(|| {
                        request
                            .path
                            .strip_prefix("/jobs/")
                            .and_then(|rest| rest.strip_suffix("/events"))
                            .and_then(|id| id.parse::<u64>().ok())
                    })
                    .flatten();
                let status = match events_target {
                    Some(job_id) => {
                        stream_job_events(inner, &mut conn, job_id, request.keep_alive, &request_id)
                    }
                    // `/debug/profile` also owns the connection (the capture
                    // takes seconds; the result streams as chunks), and it
                    // carries a query string, which the exact-match router
                    // does not parse.
                    None if request.method == "GET" && is_profile_path(&request.path) => {
                        serve_profile(
                            inner,
                            &mut conn,
                            &request.path,
                            request.keep_alive,
                            &request_id,
                        )
                    }
                    None => {
                        let (status, content_type, body) = route(inner, &request, &request_id);
                        conn.respond(
                            status,
                            content_type,
                            &body,
                            request.keep_alive,
                            Some(&request_id),
                        );
                        status
                    }
                };
                inner
                    .metrics
                    .request_seconds
                    .observe(started.elapsed().as_secs_f64());
                LogLine::new("request")
                    .str("method", &request.method)
                    .str("path", &request.path)
                    .str("request_id", &request_id)
                    .num("status", u64::from(status))
                    .emit();
                if !request.keep_alive {
                    return;
                }
            }
        }
    }
}

/// The correlation id for one request: the client's `X-Request-Id` when it
/// is well-formed (1–64 characters from `[A-Za-z0-9._:-]`), otherwise a
/// generated `req-{n}`. The id is echoed on the response, attached to the
/// job record, and stamped on every related log line.
fn request_id_for(inner: &Inner, supplied: Option<&str>) -> String {
    match supplied {
        Some(id)
            if !id.is_empty()
                && id.len() <= 64
                && id.bytes().all(|b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':')
                }) =>
        {
            id.to_string()
        }
        _ => format!("req-{}", inner.next_request.fetch_add(1, Ordering::Relaxed)),
    }
}

/// Serves `GET /jobs/{id}/events`: subscribes to the job's event stream
/// and writes NDJSON chunks until the job reaches a terminal state, then
/// appends one `{"event":"end",...}` record (carrying the subscriber's
/// `dropped` count) and terminates the chunked body — the keep-alive
/// connection survives for the next request. Returns the response status
/// for the access log.
fn stream_job_events(
    inner: &Inner,
    conn: &mut http::Conn<TcpStream>,
    id: u64,
    keep_alive: bool,
    request_id: &str,
) -> u16 {
    const JSON: &str = "application/json";
    let stream = {
        let st = inner.state.lock().expect("state lock");
        match st.jobs.get(&id) {
            None => Err((404, error_body("no such job"))),
            Some(job) => match &job.trace {
                Some(stream) => Ok(stream.clone()),
                None => Err((
                    409,
                    error_body("job was not submitted with \"trace\": true"),
                )),
            },
        }
    };
    let stream = match stream {
        Ok(stream) => stream,
        Err((status, body)) => {
            conn.respond(status, JSON, &body, keep_alive, Some(request_id));
            return status;
        }
    };
    let subscriber = stream.subscribe();
    if !conn.start_stream(200, "application/x-ndjson", keep_alive, request_id) {
        stream.unsubscribe(&subscriber);
        return 200;
    }
    loop {
        let lines = subscriber.drain(Duration::from_millis(25));
        if !lines.is_empty() {
            let mut chunk = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
            for line in &lines {
                chunk.push_str(line);
                chunk.push('\n');
            }
            if !conn.write_chunk(&chunk) {
                break;
            }
        }
        let terminal = {
            let st = inner.state.lock().expect("state lock");
            match st.jobs.get(&id) {
                None => Some("evicted"),
                Some(job) => match &job.state {
                    JobState::Finished { status, .. } => Some(*status),
                    _ => None,
                },
            }
        };
        if let Some(status) = terminal {
            // Events are recorded strictly before the terminal state is
            // published, so one final drain delivers everything.
            let mut tail = String::new();
            for line in subscriber.drain(Duration::ZERO) {
                tail.push_str(&line);
                tail.push('\n');
            }
            use std::fmt::Write as _;
            let _ = writeln!(
                tail,
                "{{\"event\":\"end\",\"job\":{id},\"status\":\"{status}\",\"dropped\":{}}}",
                subscriber.dropped()
            );
            let _ = conn.write_chunk(&tail);
            let _ = conn.end_stream();
            break;
        }
    }
    stream.unsubscribe(&subscriber);
    200
}

fn error_body(message: &str) -> String {
    let mut body = String::from("{\"error\":");
    push_json_str(&mut body, message);
    body.push('}');
    body
}

/// Whether a raw request path (query string included) addresses the
/// on-demand profiler endpoint.
fn is_profile_path(path: &str) -> bool {
    path == "/debug/profile" || path.starts_with("/debug/profile?")
}

/// Serves `GET /debug/profile[?seconds=N&hz=H&format=folded|json]`: runs —
/// or joins — an on-demand sampling capture of every live solver worker's
/// activity beacon, then streams folded stacks (default) or a JSON summary
/// over the chunked machinery. The capture blocks this connection for
/// `seconds` of wall clock (capped at [`profile::MAX_PROFILE_SECONDS`]);
/// a concurrent request with different parameters receives `409`. Returns
/// the response status for the access log.
fn serve_profile(
    inner: &Inner,
    conn: &mut http::Conn<TcpStream>,
    path: &str,
    keep_alive: bool,
    request_id: &str,
) -> u16 {
    const JSON: &str = "application/json";
    let query = path.split_once('?').map(|(_, q)| q).unwrap_or("");
    let params = match profile::ProfileParams::parse(query) {
        Ok(params) => params,
        Err(message) => {
            conn.respond(
                400,
                JSON,
                &error_body(&message),
                keep_alive,
                Some(request_id),
            );
            return 400;
        }
    };
    let (joined, captured) = match inner.profiler.run(params) {
        profile::ProfileOutcome::Captured(p) => (false, p),
        profile::ProfileOutcome::Joined(p) => (true, p),
        profile::ProfileOutcome::Busy { seconds, hz } => {
            let message = format!(
                "a profile capture with different parameters is in flight \
                 (seconds={seconds}, hz={hz}); join it with matching \
                 parameters or retry after it finishes"
            );
            conn.respond(
                409,
                JSON,
                &error_body(&message),
                keep_alive,
                Some(request_id),
            );
            return 409;
        }
        profile::ProfileOutcome::TimedOut => {
            let message = "joined capture never published a result";
            conn.respond(
                503,
                JSON,
                &error_body(message),
                keep_alive,
                Some(request_id),
            );
            return 503;
        }
    };
    let (content_type, body) = if params.json {
        (JSON, captured.to_json())
    } else {
        ("text/plain; charset=utf-8", captured.to_folded())
    };
    if conn.start_stream(200, content_type, keep_alive, request_id) {
        let _ = conn.write_chunk(&body);
        let _ = conn.end_stream();
    }
    LogLine::new("profile_captured")
        .str("request_id", request_id)
        .num("seconds", params.seconds)
        .num("hz", params.hz)
        .num("samples", captured.samples)
        .num("stacks", captured.stacks.len() as u64)
        .num("joined", u64::from(joined))
        .emit();
    200
}

/// The always-on low-rate sampler behind the phase-occupancy gauges: reads
/// every worker beacon ~13 times a second (77 ms — deliberately off the
/// 97 Hz on-demand profiler cadence), folds each ~2 s window into a
/// [`Profile`](recopack_core::Profile), and refreshes
/// `recopack_worker_phase_occupancy`, `recopack_workers_stalled`, and
/// `recopack_uptime_seconds`. Holds only a `Weak<Inner>` and exits within
/// one window of the server being dropped.
fn occupancy_sampler_loop(inner: &std::sync::Weak<Inner>) {
    const TICK: Duration = Duration::from_millis(77);
    const WINDOW_TICKS: u32 = 26;
    // ~1 s of unchanged beacon while non-idle counts as stalled.
    const STALL_SAMPLES: u32 = 13;
    let mut snapshot = Vec::new();
    loop {
        let mut builder = ProfileBuilder::new(13).with_stall_threshold(STALL_SAMPLES);
        for _ in 0..WINDOW_TICKS {
            std::thread::sleep(TICK);
            beacon::global_registry().snapshot(&mut snapshot);
            builder.observe(&snapshot);
        }
        let Some(inner) = inner.upgrade() else { return };
        let window = builder.finish();
        for (phase, gauge) in BeaconPhase::ALL.iter().zip(&inner.metrics.phase_occupancy) {
            gauge.set((window.occupancy(*phase) * 100.0).round() as i64);
        }
        inner
            .metrics
            .workers_stalled
            .set(window.stalled_workers.len() as i64);
        inner
            .metrics
            .uptime
            .set(inner.started.elapsed().as_secs() as i64);
    }
}

fn route(inner: &Inner, request: &http::Request, request_id: &str) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    const PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let (status, body) = healthz(inner);
            (status, JSON, body)
        }
        ("GET", "/metrics") => {
            inner
                .metrics
                .uptime
                .set(inner.started.elapsed().as_secs() as i64);
            (200, PROMETHEUS, inner.metrics.registry.render())
        }
        ("GET", "/debug/jobs") => (200, JSON, inner.recorder.to_json()),
        // GETs on `/debug/profile` never reach the router (they stream from
        // `handle_connection`); anything else on the path is a method error.
        (_, path) if is_profile_path(path) => (405, JSON, error_body("method not allowed")),
        ("POST", "/jobs") => {
            let (status, body) = submit(inner, &request.body, request_id);
            (status, JSON, body)
        }
        ("POST", "/jobs:batch") => {
            let (status, body) = submit_batch(inner, &request.body, request_id);
            (status, JSON, body)
        }
        ("GET", "/jobs") => (200, JSON, list_jobs(inner)),
        (method, path) => match path.strip_prefix("/jobs/") {
            Some(rest) => {
                // Sub-resources first: `{id}/progress` here, `{id}/events`
                // in `handle_connection` (it needs the raw connection).
                if let Some(id_text) = rest.strip_suffix("/progress") {
                    match id_text.parse::<u64>() {
                        Ok(id) if method == "GET" => {
                            let (status, body) = job_progress(inner, id);
                            (status, JSON, body)
                        }
                        Ok(_) => (405, JSON, error_body("method not allowed")),
                        Err(_) => (404, JSON, error_body("job ids are integers")),
                    }
                } else if rest
                    .strip_suffix("/events")
                    .is_some_and(|id| id.parse::<u64>().is_ok())
                {
                    // A non-GET on an events sub-resource (GETs never
                    // reach the router).
                    (405, JSON, error_body("method not allowed"))
                } else {
                    match rest.parse::<u64>() {
                        Ok(id) => match method {
                            "GET" => {
                                let (status, body) = job_status(inner, id);
                                (status, JSON, body)
                            }
                            "DELETE" => {
                                let (status, body) = cancel_job(inner, id);
                                (status, JSON, body)
                            }
                            _ => (405, JSON, error_body("method not allowed")),
                        },
                        Err(_) => (404, JSON, error_body("job ids are integers")),
                    }
                }
            }
            None => (404, JSON, error_body("not found")),
        },
    }
}

/// Serves `GET /jobs/{id}/progress`: the live snapshot of one job's
/// solver counters and phase timings, at any lifecycle stage.
fn job_progress(inner: &Inner, id: u64) -> (u16, String) {
    let st = inner.state.lock().expect("state lock");
    match st.jobs.get(&id) {
        Some(job) => {
            let status = match &job.state {
                JobState::Queued => "queued",
                JobState::Running => "running",
                JobState::Finished { status, .. } => status,
            };
            (
                200,
                job.progress
                    .to_json(id, status, &job.request_id, job.trace.as_deref()),
            )
        }
        None => (404, error_body("no such job")),
    }
}

fn healthz(inner: &Inner) -> (u16, String) {
    let (depth, draining) = {
        let st = inner.state.lock().expect("state lock");
        (st.queue.len(), st.draining)
    };
    let capacity = inner.queue_capacity;
    let in_flight = inner.metrics.in_flight.get();
    let status_word = if draining {
        "draining"
    } else if depth >= capacity {
        "saturated"
    } else {
        "ok"
    };
    let code = if status_word == "ok" { 200 } else { 503 };
    let version = env!("CARGO_PKG_VERSION");
    let body = format!(
        "{{\"status\":\"{status_word}\",\"version\":\"{version}\",\
         \"queue_depth\":{depth},\
         \"queue_capacity\":{capacity},\"in_flight\":{in_flight}}}"
    );
    (code, body)
}

/// Records a refused submission in metrics and the log, and returns the
/// HTTP status plus a plain reason for the caller to package.
fn reject(inner: &Inner, kind_index: usize, status: u16, reason: &str) -> (u16, String) {
    inner.metrics.rejected[kind_index].inc();
    LogLine::new("job_rejected")
        .str("kind", REJECT_KINDS[kind_index])
        .str("reason", reason)
        .emit();
    (status, reason.to_string())
}

/// Handles `POST /jobs`: validate, admission-control, enqueue.
fn submit(inner: &Inner, body: &str, request_id: &str) -> (u16, String) {
    let doc = match Json::parse(body) {
        Ok(doc) => doc,
        Err(e) => {
            let (status, reason) = reject(
                inner,
                REJECT_UNKNOWN,
                400,
                &format!("malformed JSON body: {e}"),
            );
            return (status, error_body(&reason));
        }
    };
    match submit_doc(inner, &doc, request_id) {
        Ok((id, status_word)) => (202, format!("{{\"id\":{id},\"status\":\"{status_word}\"}}")),
        Err((status, reason)) => (status, error_body(&reason)),
    }
}

/// Largest accepted `POST /jobs:batch` array.
const MAX_BATCH_ITEMS: usize = 64;

/// Handles `POST /jobs:batch`: an array of job objects (bare, or under a
/// `jobs` key), admitted independently. The response carries one entry per
/// item, in order — an `{"id":..,"status":..}` on admission or a
/// `{"status":"rejected","code":..,"error":..}` on refusal — so one bad or
/// over-quota item never poisons the rest of the batch.
fn submit_batch(inner: &Inner, body: &str, request_id: &str) -> (u16, String) {
    let doc = match Json::parse(body) {
        Ok(doc) => doc,
        Err(e) => {
            let (status, reason) = reject(
                inner,
                REJECT_UNKNOWN,
                400,
                &format!("malformed JSON body: {e}"),
            );
            return (status, error_body(&reason));
        }
    };
    let items = match doc
        .as_array()
        .or_else(|| doc.get("jobs").and_then(Json::as_array))
    {
        Some(items) if !items.is_empty() => items,
        _ => {
            let (status, reason) = reject(
                inner,
                REJECT_UNKNOWN,
                400,
                "batch body must be a non-empty JSON array of job objects (or {\"jobs\":[...]})",
            );
            return (status, error_body(&reason));
        }
    };
    if items.len() > MAX_BATCH_ITEMS {
        let (status, reason) = reject(
            inner,
            REJECT_UNKNOWN,
            400,
            &format!(
                "batch of {} exceeds the limit of {MAX_BATCH_ITEMS}",
                items.len()
            ),
        );
        return (status, error_body(&reason));
    }
    let mut body = String::from("{\"jobs\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        match submit_doc(inner, item, request_id) {
            Ok((id, status_word)) => {
                use std::fmt::Write as _;
                let _ = write!(body, "{{\"id\":{id},\"status\":\"{status_word}\"}}");
            }
            Err((code, reason)) => {
                use std::fmt::Write as _;
                let _ = write!(body, "{{\"status\":\"rejected\",\"code\":{code},\"error\":");
                push_json_str(&mut body, &reason);
                body.push('}');
            }
        }
    }
    body.push_str("]}");
    (200, body)
}

/// Admits one job document: validate, consult the solution cache, attach
/// to an identical in-flight run, or enqueue a fresh solve. Returns the
/// job id and its initial status word (`queued`, or `done` on a cache
/// hit), or the refusal status and reason.
fn submit_doc(
    inner: &Inner,
    doc: &Json,
    request_id: &str,
) -> Result<(u64, &'static str), (u16, String)> {
    let Some(kind_name) = doc.get("kind").and_then(Json::as_str) else {
        return Err(reject(
            inner,
            REJECT_UNKNOWN,
            400,
            "missing \"kind\" (opp|bmp|spp|pareto)",
        ));
    };
    let Some(kind) = JobKind::parse(kind_name) else {
        return Err(reject(
            inner,
            REJECT_UNKNOWN,
            400,
            &format!("unknown kind {kind_name:?}"),
        ));
    };
    let Some(instance_text) = doc.get("instance").and_then(Json::as_str) else {
        return Err(reject(
            inner,
            kind.index(),
            400,
            "missing \"instance\" text",
        ));
    };
    let instance = match format::parse_instance(instance_text) {
        Ok(instance) => instance,
        Err(e) => {
            return Err(reject(
                inner,
                kind.index(),
                400,
                &format!("bad instance: {e}"),
            ));
        }
    };
    let instance = if doc
        .get("no_precedence")
        .and_then(Json::as_bool)
        .unwrap_or(false)
    {
        instance.without_precedence()
    } else {
        instance.with_transitive_closure()
    };
    // Every run reports live progress through its solve handle; the raw
    // event stream is opt-in, so untraced jobs run with no sink at all.
    let handle = SolveHandle::new();
    let traced = doc.get("trace").and_then(Json::as_bool).unwrap_or(false);
    let stream = traced.then(|| Arc::new(EventStream::new()));
    let telemetry = match &stream {
        Some(stream) => Telemetry::to(stream.clone()),
        None => Telemetry::none(),
    };
    let config = SolverConfig {
        threads: doc.get("threads").and_then(Json::as_u64).unwrap_or(1) as usize,
        use_bounds: doc
            .get("use_bounds")
            .and_then(Json::as_bool)
            .unwrap_or(true),
        use_heuristics: doc
            .get("use_heuristics")
            .and_then(Json::as_bool)
            .unwrap_or(true),
        node_limit: doc.get("node_limit").and_then(Json::as_u64),
        time_limit: doc
            .get("time_limit_ms")
            .and_then(Json::as_u64)
            .map(Duration::from_millis),
        telemetry,
        handle: handle.clone(),
        ..SolverConfig::default()
    };
    let canon_started = Instant::now();
    let canon = cache::canonical_form(&instance);
    inner
        .metrics
        .canon_seconds
        .observe(canon_started.elapsed().as_secs_f64());
    let mut key = cache::cache_key(kind.name(), &canon.text, &config);
    if traced {
        // Traced and untraced runs must not share a cache/dedup identity:
        // a traced submission joining an untraced run would have no stream
        // to serve.
        key.push_str("|traced");
    }
    let task_names: Vec<String> = instance
        .tasks()
        .iter()
        .map(|t| t.name().to_string())
        .collect();
    let name_for = |id: u64| {
        doc.get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("job-{id}"))
    };

    // 1. Replay a memoized solution: the job is born finished, carrying
    //    the byte-identical report of the original run and the cached
    //    placement rendered with *this* submission's task names (the key
    //    is relabeling-invariant, so the original names may differ).
    let hit = inner.cache.lock().expect("cache lock").get(&key);
    if let Some(hit) = hit {
        let mut st = inner.state.lock().expect("state lock");
        if st.draining {
            return Err(reject(inner, kind.index(), 503, "server is draining"));
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let name = name_for(id);
        let placement = hit
            .placement
            .as_ref()
            .map(|origins| render_placement(origins, &task_names, &canon.rank));
        let progress = Arc::new(JobProgress::new(handle));
        progress.mark_finished();
        if let Some(stream) = &stream {
            // Born finished: a subscriber gets an immediate end record.
            stream.close();
        }
        let outcome = hit.outcome.clone();
        st.jobs.insert(
            id,
            Job {
                kind,
                name: name.clone(),
                state: JobState::Finished {
                    status: hit.status,
                    outcome: hit.outcome,
                    report: hit.report,
                    placement,
                },
                spec: None,
                key,
                task_names,
                rank: canon.rank,
                request_id: request_id.to_string(),
                progress: progress.clone(),
                trace: stream,
            },
        );
        retire_job(&mut st, id);
        drop(st);
        let (queue_wait, solve) = progress.split();
        inner.recorder.record(JobSummary {
            id,
            kind: kind.name(),
            name: name.clone(),
            status: hit.status,
            outcome,
            via: "cache",
            request_id: request_id.to_string(),
            queue_wait_ms: queue_wait * 1000.0,
            solve_ms: solve * 1000.0,
            nodes: 0,
        });
        inner.metrics.cache_hits.inc();
        inner.metrics.accepted[kind.index()].inc();
        inner.metrics.completed[kind.index()].inc();
        LogLine::new("job_cached")
            .num("job", id)
            .str("kind", kind.name())
            .str("name", &name)
            .str("request_id", request_id)
            .emit();
        return Ok((id, "done"));
    }

    let mut st = inner.state.lock().expect("state lock");
    if st.draining {
        return Err(reject(inner, kind.index(), 503, "server is draining"));
    }

    // 2. Attach to an identical run already in flight: no queue slot, no
    //    second solver run — the driver publishes to every subscriber.
    //    Never join a group whose handle has already been cancelled: the
    //    joiner would inherit a `cancelled` verdict for a run it never
    //    asked to cancel. Every cancel path retires the entry in the same
    //    critical section that cancels the handle, so a stale entry here
    //    is a defect — drop it and start fresh.
    if st
        .inflight
        .get(&key)
        .is_some_and(|group| group.handle.is_cancelled())
    {
        st.inflight.remove(&key);
    }
    if st.inflight.contains_key(&key) {
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let name = name_for(id);
        let driver = st.inflight[&key].members[0];
        let (state, driver_progress, driver_trace) = match st.jobs.get(&driver) {
            Some(job) => (
                if matches!(job.state, JobState::Running) {
                    JobState::Running
                } else {
                    JobState::Queued
                },
                Some(job.progress.clone()),
                job.trace.clone(),
            ),
            None => (JobState::Queued, None, None),
        };
        // A joiner reads the shared run's handle but keeps its own
        // lifecycle timing: it waited in no queue of its own, and a join
        // onto a running group starts its solve phase immediately.
        let progress = Arc::new(JobProgress::new(
            driver_progress
                .map(|p| p.handle().clone())
                .unwrap_or_default(),
        ));
        if matches!(state, JobState::Running) {
            progress.mark_started();
        }
        st.inflight
            .get_mut(&key)
            .expect("group checked above")
            .members
            .push(id);
        st.jobs.insert(
            id,
            Job {
                kind,
                name: name.clone(),
                state,
                spec: None,
                key,
                task_names,
                rank: canon.rank,
                request_id: request_id.to_string(),
                progress,
                trace: driver_trace,
            },
        );
        drop(st);
        inner.metrics.dedup_joins.inc();
        inner.metrics.accepted[kind.index()].inc();
        LogLine::new("job_joined")
            .num("job", id)
            .str("kind", kind.name())
            .str("name", &name)
            .str("request_id", request_id)
            .emit();
        return Ok((id, "queued"));
    }

    // 3. Fresh work: admission-control against the bounded queue.
    if st.queue.len() >= inner.queue_capacity {
        return Err(reject(inner, kind.index(), 503, "queue full"));
    }
    let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
    let name = name_for(id);
    st.jobs.insert(
        id,
        Job {
            kind,
            name: name.clone(),
            state: JobState::Queued,
            spec: Some(JobSpec {
                instance,
                config,
                rank: canon.rank.clone(),
            }),
            key: key.clone(),
            task_names,
            rank: canon.rank,
            request_id: request_id.to_string(),
            progress: Arc::new(JobProgress::new(handle.clone())),
            trace: stream,
        },
    );
    st.inflight.insert(
        key,
        InFlight {
            members: vec![id],
            handle,
            group: inner.next_group.fetch_add(1, Ordering::Relaxed),
        },
    );
    st.queue.push_back(id);
    drop(st);
    inner.metrics.queue_depth.inc();
    inner.metrics.cache_misses.inc();
    inner.metrics.accepted[kind.index()].inc();
    inner.work_available.notify_one();
    LogLine::new("job_accepted")
        .num("job", id)
        .str("kind", kind.name())
        .str("name", &name)
        .str("request_id", request_id)
        .emit();
    Ok((id, "queued"))
}

fn job_json(id: u64, job: &Job) -> String {
    let mut body = format!("{{\"id\":{id},\"kind\":");
    push_json_str(&mut body, job.kind.name());
    body.push_str(",\"name\":");
    push_json_str(&mut body, &job.name);
    body.push_str(",\"request_id\":");
    push_json_str(&mut body, &job.request_id);
    body.push_str(",\"status\":");
    match &job.state {
        JobState::Queued => body.push_str("\"queued\"}"),
        JobState::Running => body.push_str("\"running\"}"),
        JobState::Finished {
            status,
            outcome,
            report,
            placement,
        } => {
            push_json_str(&mut body, status);
            body.push_str(",\"outcome\":");
            push_json_str(&mut body, outcome);
            body.push_str(",\"report\":");
            match report {
                Some(report) => body.push_str(report),
                None => body.push_str("null"),
            }
            body.push_str(",\"placement\":");
            match placement {
                Some(placement) => push_json_str(&mut body, placement),
                None => body.push_str("null"),
            }
            body.push('}');
        }
    }
    body
}

fn job_status(inner: &Inner, id: u64) -> (u16, String) {
    let st = inner.state.lock().expect("state lock");
    match st.jobs.get(&id) {
        Some(job) => (200, job_json(id, job)),
        None => (404, error_body("no such job")),
    }
}

fn list_jobs(inner: &Inner) -> String {
    let st = inner.state.lock().expect("state lock");
    let mut ids: Vec<u64> = st.jobs.keys().copied().collect();
    ids.sort_unstable();
    let mut body = String::from("{\"jobs\":[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&job_json(*id, &st.jobs[id]));
    }
    body.push_str("]}");
    body
}

fn cancel_job(inner: &Inner, id: u64) -> (u16, String) {
    enum Snapshot {
        NotFound,
        Queued(JobKind),
        Running(JobKind),
        Finished(&'static str),
    }
    let mut st = inner.state.lock().expect("state lock");
    let snapshot = match st.jobs.get(&id) {
        None => Snapshot::NotFound,
        Some(job) => match &job.state {
            JobState::Queued => Snapshot::Queued(job.kind),
            JobState::Running => Snapshot::Running(job.kind),
            JobState::Finished { status, .. } => Snapshot::Finished(status),
        },
    };
    let (kind, was_queued) = match snapshot {
        Snapshot::NotFound => return (404, error_body("no such job")),
        Snapshot::Finished(status) => {
            return (
                409,
                format!(
                    "{{\"id\":{id},\"status\":\"{status}\",\"error\":\"job already finished\"}}"
                ),
            );
        }
        Snapshot::Queued(kind) => (kind, true),
        Snapshot::Running(kind) => (kind, false),
    };

    let (key, job_name, job_request, job_progress) = {
        let job = st.jobs.get(&id).expect("job exists");
        (
            job.key.clone(),
            job.name.clone(),
            job.request_id.clone(),
            job.progress.clone(),
        )
    };
    // The membership check matters: after a running job's group is retired
    // by a previous DELETE, an identical submission may install a
    // *successor* group under the same key — that one must not be touched
    // on behalf of this job.
    let Some(group) = st
        .inflight
        .get_mut(&key)
        .filter(|group| group.members.contains(&id))
    else {
        // Already detached: an earlier DELETE cancelled the handle and
        // retired the group; the worker publishes the terminal state
        // shortly.
        drop(st);
        return (202, format!("{{\"id\":{id},\"status\":\"cancelling\"}}"));
    };

    if group.members.len() > 1 {
        // Unsubscribe one member of a shared run: the solve itself keeps
        // going for the remaining subscribers. If the departing job was
        // the driver (holds the spec / the queue slot), promote an heir.
        group.members.retain(|&member| member != id);
        let heir = group.members[0];
        if let Some(spec) = st.jobs.get_mut(&id).and_then(|job| job.spec.take()) {
            st.jobs.get_mut(&heir).expect("heir exists").spec = Some(spec);
            for slot in st.queue.iter_mut() {
                if *slot == id {
                    *slot = heir;
                }
            }
        }
        let job = st.jobs.get_mut(&id).expect("job exists");
        job.state = JobState::Finished {
            status: "cancelled",
            outcome: "unsubscribed from shared run".to_string(),
            report: None,
            placement: None,
        };
        retire_job(&mut st, id);
        drop(st);
        // The shared run (and its event stream) lives on for the
        // remaining members; only this job's own lifecycle closes.
        job_progress.mark_finished();
        let (queue_wait, solve) = job_progress.split();
        inner.recorder.record(JobSummary {
            id,
            kind: kind.name(),
            name: job_name,
            status: "cancelled",
            outcome: "unsubscribed from shared run".to_string(),
            via: "shared",
            request_id: job_request.clone(),
            queue_wait_ms: queue_wait * 1000.0,
            solve_ms: solve * 1000.0,
            nodes: 0,
        });
        inner.metrics.cancelled[kind.index()].inc();
        LogLine::new("job_cancelled")
            .num("job", id)
            .str("while", "shared")
            .str("request_id", &job_request)
            .emit();
        return (200, format!("{{\"id\":{id},\"status\":\"cancelled\"}}"));
    }

    // Last subscriber: actually stop the solve.
    if was_queued {
        group.handle.cancel();
        st.inflight.remove(&key);
        st.queue.retain(|&queued| queued != id);
        let job = st.jobs.get_mut(&id).expect("job exists");
        job.state = JobState::Finished {
            status: "cancelled",
            outcome: "cancelled while queued".to_string(),
            report: None,
            placement: None,
        };
        let trace = job.trace.clone();
        retire_job(&mut st, id);
        drop(st);
        job_progress.mark_finished();
        if let Some(trace) = trace {
            // The run never starts; release any stream subscribers.
            trace.close();
        }
        let (queue_wait, solve) = job_progress.split();
        inner.recorder.record(JobSummary {
            id,
            kind: kind.name(),
            name: job_name,
            status: "cancelled",
            outcome: "cancelled while queued".to_string(),
            via: "run",
            request_id: job_request.clone(),
            queue_wait_ms: queue_wait * 1000.0,
            solve_ms: solve * 1000.0,
            nodes: 0,
        });
        inner.metrics.queue_depth.dec();
        inner.metrics.cancelled[kind.index()].inc();
        LogLine::new("job_cancelled")
            .num("job", id)
            .str("while", "queued")
            .str("request_id", &job_request)
            .emit();
        (200, format!("{{\"id\":{id},\"status\":\"cancelled\"}}"))
    } else {
        // The worker observes the cancelled handle at its next budget
        // checkpoint and records the terminal state. Retire the group
        // *now*: an identical submission arriving while the solver unwinds
        // must start a fresh run, not join (and inherit the fate of) a
        // cancelled one. The worker matches on the group id, so a
        // successor entry under this key is safe from the finishing run.
        group.handle.cancel();
        st.inflight.remove(&key);
        drop(st);
        LogLine::new("job_cancelled")
            .num("job", id)
            .str("while", "running")
            .str("request_id", &job_request)
            .emit();
        (202, format!("{{\"id\":{id},\"status\":\"cancelling\"}}"))
    }
}
