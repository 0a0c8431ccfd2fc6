//! `serve_mix`: open-loop seeded Poisson arrivals against an in-process
//! `recopack_serve::Server` over two keep-alive connections.
//!
//! Arrivals follow a schedule fixed by the seed, whatever the server does,
//! so a stall shows up as lateness of every later job; each job is timed
//! from the moment it was due until its client holds the answer. Sixty
//! percent of jobs repeat one of 32 pooled instances (cache reads), the
//! rest are fresh small instances the server must parse, canonicalize,
//! solve and insert into its cache. A connection builds its next fresh
//! instance while it waits for the job to fall due, and checks each answer
//! after the job's clock has stopped.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use recopack_json::Json;
use recopack_model::{format, Instance};
use recopack_serve::{ServeConfig, Server};

use crate::check::check_placement;
use crate::gen::{self, Rng, Truth};
use crate::stats::{median, Summary, Windowed};
use crate::trace::Trace;
use crate::{Options, Report, Values};

/// Client connections, each driving jobs one at a time.
const CONNECTIONS: usize = 2;
/// Distinct instances in the repeated pool.
const POOL: usize = 32;
/// Share of arrivals that repeat a pooled instance, in percent.
const REPEAT_PERCENT: u64 = 60;
/// Offered load in jobs per second, frozen so every run offers the same
/// load: about a sixth of the closed-loop throughput (jobs sent back to
/// back over the same two connections, about 12,000 per second on a 2-CPU
/// host). Nearer that throughput, run-to-run noise of a shared host
/// swamps the latency figures (see README.md).
const OFFERED_PER_S: f64 = 2000.0;
/// A job answered later than this after it was due misses the latency
/// limit and does not count toward goodput.
const LATENCY_LIMIT_MS: f64 = 25.0;
/// The percentile `latency_tail_ms` reads: p99 moves with every brief
/// stall of a shared host, p90 does not.
const TAIL_PERCENTILE: f64 = 90.0;
/// Search nodes a job may use, so that no submission can run unbounded.
/// The generated instances need far fewer.
const NODE_LIMIT: u64 = 100_000;
/// Socket timeout: a stalled server fails the job instead of hanging.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);
/// A job not finished this long after submission counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(10);
/// Fresh jobs submitted during each warm-up, besides the pool.
const WARM_FRESH: u64 = 200;

/// One submission.
struct Job {
    /// The `POST /jobs` body.
    body: String,
    /// The submitted instance, as the server will parse it.
    instance: Instance,
    truth: Truth,
}

/// A small instance with a known answer: three in four are witnessed
/// feasible packings, one in four overflows its container.
fn small_case(rng: &mut Rng) -> gen::Case {
    if rng.percent(75) {
        let n = rng.range(5, 7) as usize;
        gen::witnessed(rng, n, 4, 3)
    } else {
        gen::overflowing(rng, 4, 3, 2)
    }
}

fn job(name: String, case: gen::Case) -> Job {
    let text = format::format_instance(&case.instance);
    let body = Json::Object(vec![
        ("kind".to_string(), Json::String("opp".to_string())),
        ("name".to_string(), Json::String(name)),
        ("instance".to_string(), Json::String(text)),
        ("node_limit".to_string(), Json::Number(NODE_LIMIT as f64)),
    ])
    .to_json_string();
    Job {
        body,
        instance: case.instance,
        truth: case.truth,
    }
}

/// Where an arrival's instance comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A pooled instance, by slot.
    Pool(usize),
    /// The fresh instance with this number; its content depends only on
    /// the seed and the number, whichever connection builds it.
    Fresh(u64),
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// When the job is due, in seconds after the phase starts.
    due_s: f64,
    source: Source,
}

/// The inputs of one run.
struct Inputs {
    seed: u64,
    pool: Vec<Arc<Job>>,
    /// Warm-up arrivals, all due at once: every pooled instance, then
    /// fresh ones numbered past the schedule's.
    warm: Vec<Arrival>,
    /// The measured arrivals.
    schedule: Vec<Arrival>,
}

impl Inputs {
    fn new(seed: u64, count: usize) -> Self {
        let mut rng = Rng::new(seed, 8);
        let pool = (0..POOL)
            .map(|slot| Arc::new(job(format!("pool-{slot}"), small_case(&mut rng))))
            .collect();
        let mut due_s = 0.0;
        let mut fresh = 0;
        let schedule: Vec<Arrival> = (0..count)
            .map(|_| {
                due_s += -(1.0 - rng.unit()).ln() / OFFERED_PER_S;
                let source = if rng.percent(REPEAT_PERCENT) {
                    Source::Pool(rng.index(POOL))
                } else {
                    fresh += 1;
                    Source::Fresh(fresh)
                };
                Arrival { due_s, source }
            })
            .collect();
        let warm = (0..POOL)
            .map(Source::Pool)
            .chain((1..=WARM_FRESH).map(|i| Source::Fresh(u64::MAX - i)))
            .map(|source| Arrival { due_s: 0.0, source })
            .collect();
        Self {
            seed,
            pool,
            warm,
            schedule,
        }
    }

    /// The job an arrival submits.
    fn job(&self, source: Source) -> Arc<Job> {
        match source {
            Source::Pool(slot) => Arc::clone(&self.pool[slot]),
            Source::Fresh(number) => {
                let mut rng = Rng::new(self.seed ^ number.wrapping_mul(0x9e37_79b9_7f4a_7c15), 9);
                Arc::new(job(format!("fresh-{number}"), small_case(&mut rng)))
            }
        }
    }
}

/// One keep-alive HTTP/1.1 connection; responses are framed by their
/// `Content-Length`, which the server always sends.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, SOCKET_TIMEOUT)?;
        stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
        stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// One request; returns the status code and body.
    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let malformed = || std::io::Error::new(ErrorKind::InvalidData, "malformed response head");
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(malformed)?;
        let length: usize = head
            .lines()
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse().ok())
            .ok_or_else(malformed)?;
        let start = header_end + 4;
        while self.buf.len() < start + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[start..start + length]).into_owned();
        self.buf.drain(..start + length);
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        match self.stream.read(&mut chunk)? {
            0 => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

/// What the connections saw while driving jobs.
#[derive(Default)]
struct Tally {
    /// `(completion time in seconds since the phase began, due-to-answer
    /// time in milliseconds)` of every job that ended `done`.
    answered: Vec<(f64, f64)>,
    /// Jobs answered correctly, with a verdict, within
    /// [`LATENCY_LIMIT_MS`].
    on_time: u64,
    /// How long after its due time each job was sent.
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    poll_us: Vec<f64>,
    polls: u64,
    failed: u64,
    refused: u64,
    /// Why each wrong answer is wrong.
    wrong: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.answered.extend(other.answered);
        self.on_time += other.on_time;
        self.late_ms.extend(other.late_ms);
        self.submit_us.extend(other.submit_us);
        self.poll_us.extend(other.poll_us);
        self.polls += other.polls;
        self.failed += other.failed;
        self.refused += other.refused;
        self.wrong.extend(other.wrong);
    }
}

/// Drives arrivals from the shared schedule over one connection until
/// none are left. Records spans when `trace` is given.
fn drive(
    client: &mut Client,
    inputs: &Inputs,
    arrivals: &[Arrival],
    next: &AtomicUsize,
    phase: Instant,
    mut trace: Option<&mut Trace>,
    tid: u64,
) -> Tally {
    let mut tally = Tally::default();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(arrival) = arrivals.get(index) else {
            return tally;
        };
        let job = inputs.job(arrival.source);
        let due = phase + Duration::from_secs_f64(arrival.due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        tally.late_ms.push((sent - due).as_secs_f64() * 1e3);
        if let Some(trace) = trace.as_deref_mut() {
            trace.enter_at("job", tid, index as u64, due);
            trace.enter_at("load.late", tid, index as u64, due);
            trace.exit_at(sent);
        }
        let outcome = run_job(client, &job, &mut tally, trace.as_deref_mut(), tid, index);
        let done = Instant::now();
        if let Some(trace) = trace.as_deref_mut() {
            trace.exit_at(done);
        }
        let Some(document) = outcome else {
            tally.failed += 1;
            continue;
        };
        let latency_ms = (done - due).as_secs_f64() * 1e3;
        tally
            .answered
            .push(((done - phase).as_secs_f64(), latency_ms));
        match check_answer(&job, &document) {
            Err(why) => tally.wrong.push(format!("job {index}: {why}")),
            Ok(true) if latency_ms <= LATENCY_LIMIT_MS => tally.on_time += 1,
            Ok(_) => {}
        }
    }
}

/// Submits one job and polls it to a terminal state; returns its final
/// document if it ended `done`.
fn run_job(
    client: &mut Client,
    job: &Job,
    tally: &mut Tally,
    mut trace: Option<&mut Trace>,
    tid: u64,
    index: usize,
) -> Option<Json> {
    let started = Instant::now();
    let reply = client.request("POST", "/jobs", &job.body);
    let now = Instant::now();
    tally.submit_us.push((now - started).as_secs_f64() * 1e6);
    if let Some(trace) = trace.as_deref_mut() {
        trace.enter_at("POST /jobs", tid, index as u64, started);
        trace.exit_at(now);
    }
    let (status, reply) = reply.ok()?;
    if status == 503 {
        tally.refused += 1;
    }
    if status != 202 {
        return None;
    }
    let id = Json::parse(&reply).ok()?.get("id")?.as_u64()?;
    let path = format!("/jobs/{id}");
    let deadline = started + JOB_DEADLINE;
    loop {
        if Instant::now() > deadline {
            return None;
        }
        let started = Instant::now();
        let reply = client.request("GET", &path, "");
        let now = Instant::now();
        tally.polls += 1;
        tally.poll_us.push((now - started).as_secs_f64() * 1e6);
        if let Some(trace) = trace.as_deref_mut() {
            trace.enter_at("GET /jobs/{id}", tid, index as u64, started);
            trace.exit_at(now);
        }
        let (status, body) = reply.ok()?;
        if status != 200 {
            return None;
        }
        let document = Json::parse(&body).ok()?;
        match document.get("status").and_then(Json::as_str)? {
            "queued" | "running" => {}
            "done" => return Some(document),
            _ => return None,
        }
    }
}

/// Checks a finished job's document against the submitted instance:
/// `Ok(true)` for a right verdict, `Ok(false)` when the job's node budget
/// ran out first, and the reason when the answer is wrong.
fn check_answer(job: &Job, document: &Json) -> Result<bool, String> {
    match document.get("outcome").and_then(Json::as_str) {
        Some("feasible") => {
            if job.truth == Truth::Infeasible {
                return Err("feasible, but infeasible by construction".to_string());
            }
            let text = document
                .get("placement")
                .and_then(Json::as_str)
                .unwrap_or("");
            let placement = format::parse_placement(text, &job.instance)
                .map_err(|e| format!("unreadable placement: {e}"))?;
            let origins: Vec<[u64; 3]> = placement.boxes().iter().map(|b| b.origin).collect();
            check_placement(&job.instance, &origins)
                .map(|()| true)
                .map_err(|violation| format!("bad packing: {violation:?}"))
        }
        Some("infeasible") if job.truth == Truth::Feasible => {
            Err("infeasible, but a witness packing exists".to_string())
        }
        Some("infeasible") => Ok(true),
        Some("node limit reached") => Ok(false),
        other => Err(format!("unexpected outcome {other:?}")),
    }
}

/// Sum of every series of a Prometheus family (all label sets).
fn scrape(exposition: &str, family: &str) -> f64 {
    exposition
        .lines()
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let labelled = series
                .strip_prefix(family)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'));
            labelled.then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}

/// A server as the benchmark boots it: warmed up and connected.
struct Booted {
    server: Server,
    clients: Vec<Client>,
}

/// Boots a server, connects the clients, and runs the warm-up: the pool
/// lands in the cache and every code path has run once.
fn boot(inputs: &Inputs) -> Result<Booted, String> {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        max_connections: 8,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot boot the server: {e}"))?;
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()))
        .collect::<std::io::Result<Vec<_>>>();
    let mut booted = match clients {
        Ok(clients) => Booted { server, clients },
        Err(e) => {
            stop(server);
            return Err(format!("cannot connect to the server: {e}"));
        }
    };
    let (warm, _) = run_phase(&mut booted.clients, inputs, &inputs.warm, false);
    if warm.failed > 0 || !warm.wrong.is_empty() {
        stop(booted.server);
        return Err(format!(
            "warm-up: {} jobs failed, wrong answers {:?}",
            warm.failed, warm.wrong
        ));
    }
    Ok(booted)
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// Runs `arrivals` over every connection at once; returns the combined
/// tally and, when traced, the spans.
fn run_phase(
    clients: &mut [Client],
    inputs: &Inputs,
    arrivals: &[Arrival],
    traced: bool,
) -> (Tally, Option<Trace>) {
    let next = AtomicUsize::new(0);
    let phase = Instant::now();
    let results: Vec<(Tally, Option<Trace>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(tid, client)| {
                let next = &next;
                scope.spawn(move || {
                    let mut trace = traced.then(|| Trace::new(phase));
                    let tally = drive(
                        client,
                        inputs,
                        arrivals,
                        next,
                        phase,
                        trace.as_mut(),
                        tid as u64,
                    );
                    (tally, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut merged: Option<Trace> = None;
    for (part, trace) in results {
        tally.merge(part);
        if let Some(trace) = trace {
            match &mut merged {
                Some(all) => all.merge(trace),
                None => merged = Some(trace),
            }
        }
    }
    (tally, merged)
}

/// `serve_mix`: the end-to-end report, or the per-layer one when traced.
pub fn serve_mix(options: &Options) -> Result<Report, String> {
    let count = (OFFERED_PER_S * options.seconds).ceil() as usize;
    let repeats = options.setup_repeats();
    let mut times = Vec::with_capacity(repeats);
    for _ in 1..repeats {
        let started = Instant::now();
        let booted = boot(&Inputs::new(options.seed, count))?;
        times.push(started.elapsed().as_secs_f64());
        stop(booted.server);
    }
    let started = Instant::now();
    let inputs = Inputs::new(options.seed, count);
    let mut booted = boot(&inputs)?;
    times.push(started.elapsed().as_secs_f64());
    if options.trace {
        return serve_traced(booted, &inputs);
    }
    let (tally, _) = run_phase(&mut booted.clients, &inputs, &inputs.schedule, false);
    stop(booted.server);

    let offered = inputs.schedule.len();
    let mut latency_ms = Windowed::new(options.seconds, options.seed);
    for &(at_s, ms) in &tally.answered {
        latency_ms.push(at_s, ms);
    }
    let figures = latency_ms.figures(TAIL_PERCENTILE);
    let mut report = Report::new(offered as u64);
    report.failed = tally.failed;
    report.wrong = tally.wrong;
    report.values = Values::from([
        ("setup_s", median(&times)),
        ("latency_p50_ms", figures.p50),
        ("latency_tail_ms", figures.tail),
        ("throughput_per_s", figures.rate),
        ("decided_share", tally.on_time as f64 / offered as f64),
    ]);
    report.notes.push(format!(
        "{offered} jobs offered at {OFFERED_PER_S}/s, latency limit {LATENCY_LIMIT_MS} ms"
    ));
    report.notes.push(figures.to_string());
    Ok(report)
}

/// Replays the first half of the schedule plain, then on a freshly booted
/// server with spans and a `/metrics` scrape on either side, and times the
/// model parser and the cache canonicalizer directly on the same instance
/// texts. Two half-length replays keep the traced run as long as an
/// untraced one.
fn serve_traced(mut booted: Booted, inputs: &Inputs) -> Result<Report, String> {
    let arrivals = &inputs.schedule[..inputs.schedule.len().div_ceil(2)];
    let (plain, _) = run_phase(&mut booted.clients, inputs, arrivals, false);
    stop(booted.server);

    let mut booted = boot(inputs)?;
    let metrics = |client: &mut Client| match client.request("GET", "/metrics", "") {
        Ok((200, body)) => Ok(body),
        Ok((status, _)) => Err(format!("/metrics answered {status}")),
        Err(e) => Err(format!("/metrics scrape failed: {e}")),
    };
    let before = metrics(&mut booted.clients[0]);
    let (tally, trace) = run_phase(&mut booted.clients, inputs, arrivals, true);
    let after = metrics(&mut booted.clients[0]);
    stop(booted.server);
    let (before, after) = (before?, after?);
    let trace = trace.expect("traced phase records spans");
    let delta = |family: &str| scrape(&after, family) - scrape(&before, family);

    let mut parse_us = Vec::with_capacity(arrivals.len());
    let mut canon_us = Vec::with_capacity(arrivals.len());
    for arrival in arrivals {
        let job = inputs.job(arrival.source);
        let text = format::format_instance(&job.instance);
        let started = Instant::now();
        let parsed = format::parse_instance(&text).map_err(|e| format!("own instance: {e}"))?;
        parse_us.push(started.elapsed().as_secs_f64() * 1e6);
        let closed = parsed.with_transitive_closure();
        let started = Instant::now();
        std::hint::black_box(recopack_serve::cache::canonical_form(&closed));
        canon_us.push(started.elapsed().as_secs_f64() * 1e6);
    }

    let jobs = arrivals.len() as f64;
    let latencies = |tally: &Tally| tally.answered.iter().map(|a| a.1).collect::<Vec<f64>>();
    let traced_ms = latencies(&tally);
    let latency_ms: f64 = traced_ms.iter().sum();
    let overhead = median(&traced_ms) / median(&latencies(&plain)) - 1.0;
    let (mut job_ns, mut child_ns) = (0u64, 0u64);
    for span in trace.spans() {
        match span.parent {
            None => job_ns += span.dur_ns,
            Some(_) => child_ns += span.dur_ns,
        }
    }
    let hits = delta("recopack_cache_hits_total");
    let misses = delta("recopack_cache_misses_total");
    let runs = delta("recopack_job_solve_seconds_count").max(1.0);
    let solve_s = delta("recopack_job_solve_seconds_sum");
    let queue_s = delta("recopack_job_queue_wait_seconds_sum");
    let server_ms =
        (solve_s + queue_s) * 1e3 + (median(&parse_us) + median(&canon_us)) * 1e-3 * jobs;

    let mut report = Report::new(arrivals.len() as u64);
    report.failed = tally.failed;
    report.wrong = tally.wrong;
    report.values = Values::from([
        ("model.parse_us", median(&parse_us)),
        ("serve.cache.canonicalize_us", median(&canon_us)),
        ("serve.http.submit_us", median(&tally.submit_us)),
        ("serve.http.poll_us", median(&tally.poll_us)),
        ("serve.http.polls_per_job", tally.polls as f64 / jobs),
        ("serve.queue_wait_ms", queue_s * 1e3 / runs),
        ("serve.solve_ms", solve_s * 1e3 / runs),
        ("serve.solve_share", solve_s * 1e3 / latency_ms.max(1e-9)),
        (
            "serve.rejected",
            delta("recopack_jobs_rejected_total") + tally.refused as f64,
        ),
        ("serve.attributed_share", server_ms / latency_ms.max(1e-9)),
        ("serve.cache.hit_rate", hits / (hits + misses).max(1.0)),
        (
            "serve.cache.dedup_share",
            delta("recopack_jobs_deduplicated_total") / jobs,
        ),
        (
            "load.late_p99_ms",
            Summary::new(tally.late_ms).percentile(99.0),
        ),
        (
            "load.offered_per_s",
            jobs / arrivals.last().map_or(1.0, |a| a.due_s),
        ),
        ("trace.overhead_share", overhead),
        (
            "trace.attributed_share",
            child_ns as f64 / job_ns.max(1) as f64,
        ),
    ]);
    report.notes.push(format!(
        "jobs {}, solver runs {runs}, cache hits {hits}, misses {misses}",
        arrivals.len()
    ));
    report.trace = Some(trace);
    Ok(report)
}
