//! `recopack-load`: a load generator for `recopack serve`.
//!
//! Drives N concurrent HTTP/1.1 keep-alive clients against a server —
//! either an external one (`--addr`) or one booted in-process on an
//! ephemeral port — with a seeded workload mix of *fresh* instances
//! (every submission unique), *repeated* instances drawn from a small
//! shared pool (exercising the solution cache and in-flight dedup), and
//! `POST /jobs:batch` submissions. Every HTTP round trip is timed; the
//! run ends with a `/metrics` scrape so the report can state the cache
//! hit rate the server actually observed.
//!
//! The [`LoadReport`] serializes into a JSON document (via
//! `recopack-json`) that CI uploads as an artifact. [`check_report`]
//! implements the
//! `--check` threshold gates: zero failed requests, a minimum cache hit
//! rate on the repeated mix, and a p99 sanity bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recopack_json::Json;
use recopack_model::format;
use recopack_model::generate::{random_instance, GeneratorConfig};

/// How long one client waits for a submitted job to reach a terminal
/// state before counting it as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// Per-request socket timeout (a stalled server counts as a failure, it
/// must not hang the generator).
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// Workload mix in percent: the remainder after repeats and batches is
/// fresh, never-seen-before instances.
const REPEAT_PERCENT: u32 = 50;
const BATCH_PERCENT: u32 = 15;

/// Number of distinct instances in the shared repeated pool.
const POOL_SIZE: usize = 6;

/// Options for one load run.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Target server; `None` boots an in-process server on an ephemeral
    /// port for the duration of the run.
    pub addr: Option<String>,
    /// Number of concurrent keep-alive clients.
    pub clients: usize,
    /// Operations (submit / batch) per client.
    pub ops_per_client: usize,
    /// Workload seed: same seed, same instance mix.
    pub seed: u64,
    /// Report label (mirrors `recopack-bench --label`).
    pub label: String,
    /// Marks the report as a smoke run.
    pub smoke: bool,
    /// Worker threads for the in-process server (ignored with `addr`).
    pub workers: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            addr: None,
            clients: 8,
            ops_per_client: 40,
            seed: 7,
            label: "PR7".to_string(),
            smoke: false,
            workers: 2,
        }
    }
}

/// Latency percentiles over one set of samples, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Worst observed sample.
    pub max_ms: f64,
}

impl Percentiles {
    /// Computes percentiles from unsorted samples; all-zero when empty.
    pub fn from_samples(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self {
                p50_ms: 0.0,
                p90_ms: 0.0,
                p99_ms: 0.0,
                mean_ms: 0.0,
                max_ms: 0.0,
            };
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let at = |q: f64| {
            let idx = ((samples.len() as f64 - 1.0) * q).round() as usize;
            samples[idx.min(samples.len() - 1)]
        };
        Self {
            p50_ms: at(0.50),
            p90_ms: at(0.90),
            p99_ms: at(0.99),
            mean_ms: samples.iter().sum::<f64>() / samples.len() as f64,
            max_ms: samples[samples.len() - 1],
        }
    }

    fn to_json(self) -> Json {
        Json::Object(vec![
            ("p50_ms".to_string(), Json::Number(round3(self.p50_ms))),
            ("p90_ms".to_string(), Json::Number(round3(self.p90_ms))),
            ("p99_ms".to_string(), Json::Number(round3(self.p99_ms))),
            ("mean_ms".to_string(), Json::Number(round3(self.mean_ms))),
            ("max_ms".to_string(), Json::Number(round3(self.max_ms))),
        ])
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// The outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Report label.
    pub label: String,
    /// Whether this was a smoke run.
    pub smoke: bool,
    /// Concurrent clients driven.
    pub clients: usize,
    /// Total HTTP round trips (submissions, batches, polls, scrape).
    pub requests: u64,
    /// Failed operations: refused submissions, transport errors, jobs
    /// that did not reach a successful terminal state in time.
    pub failures: u64,
    /// Times a client had to re-open its supposedly persistent
    /// connection (zero when keep-alive works).
    pub reconnects: u64,
    /// Wall-clock of the client phase, in seconds.
    pub wall_s: f64,
    /// HTTP round trips per second.
    pub throughput_rps: f64,
    /// Per-request (round-trip) latency percentiles.
    pub request_latency: Percentiles,
    /// Submit-to-terminal latency percentiles per job.
    pub job_latency: Percentiles,
    /// Jobs submitted (batch items included).
    pub jobs_submitted: u64,
    /// Jobs that reached `done`.
    pub jobs_completed: u64,
    /// Jobs submitted through `/jobs:batch`.
    pub batch_items: u64,
    /// Server-side `recopack_cache_hits_total` after the run.
    pub cache_hits: u64,
    /// Server-side `recopack_cache_misses_total` after the run.
    pub cache_misses: u64,
    /// Server-side `recopack_jobs_deduplicated_total` after the run.
    pub dedup_joins: u64,
    /// Mean queue wait per solver run in milliseconds, from the server's
    /// `recopack_job_queue_wait_seconds` histogram.
    pub queue_wait_mean_ms: f64,
    /// Mean solve wall time per solver run in milliseconds, from the
    /// server's `recopack_job_solve_seconds` histogram.
    pub solve_mean_ms: f64,
    /// NDJSON lines received by the smoke run's `/jobs/{id}/events`
    /// subscriber, terminal end record included (0 outside `--smoke`).
    pub trace_lines: u64,
}

impl LoadReport {
    /// Cache hit rate over all lookups; 0.0 before any lookup happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The report as standalone JSON text.
    pub fn to_json(&self) -> String {
        Json::Object(vec![
            ("schema_version".to_string(), Json::Number(1.0)),
            (
                "tool".to_string(),
                Json::String("recopack-load".to_string()),
            ),
            ("label".to_string(), Json::String(self.label.clone())),
            ("smoke".to_string(), Json::Bool(self.smoke)),
            ("clients".to_string(), Json::Number(self.clients as f64)),
            ("requests".to_string(), Json::Number(self.requests as f64)),
            ("failures".to_string(), Json::Number(self.failures as f64)),
            (
                "reconnects".to_string(),
                Json::Number(self.reconnects as f64),
            ),
            ("wall_s".to_string(), Json::Number(round3(self.wall_s))),
            (
                "throughput_rps".to_string(),
                Json::Number(round3(self.throughput_rps)),
            ),
            (
                "request_latency".to_string(),
                self.request_latency.to_json(),
            ),
            ("job_latency".to_string(), self.job_latency.to_json()),
            (
                "jobs_submitted".to_string(),
                Json::Number(self.jobs_submitted as f64),
            ),
            (
                "jobs_completed".to_string(),
                Json::Number(self.jobs_completed as f64),
            ),
            (
                "batch_items".to_string(),
                Json::Number(self.batch_items as f64),
            ),
            (
                "server_phases".to_string(),
                Json::Object(vec![
                    (
                        "queue_wait_mean_ms".to_string(),
                        Json::Number(round3(self.queue_wait_mean_ms)),
                    ),
                    (
                        "solve_mean_ms".to_string(),
                        Json::Number(round3(self.solve_mean_ms)),
                    ),
                ]),
            ),
            (
                "trace_lines".to_string(),
                Json::Number(self.trace_lines as f64),
            ),
            (
                "cache".to_string(),
                Json::Object(vec![
                    ("hits".to_string(), Json::Number(self.cache_hits as f64)),
                    ("misses".to_string(), Json::Number(self.cache_misses as f64)),
                    (
                        "dedup_joins".to_string(),
                        Json::Number(self.dedup_joins as f64),
                    ),
                    (
                        "hit_rate".to_string(),
                        Json::Number(round3(self.hit_rate())),
                    ),
                ]),
            ),
        ])
        .to_json_string()
    }
}

/// Threshold gates for `--check`.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Minimum acceptable cache hit rate.
    pub min_hit_rate: f64,
    /// Maximum acceptable p99 request latency, in milliseconds.
    pub max_p99_ms: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            min_hit_rate: 0.35,
            max_p99_ms: 2000.0,
        }
    }
}

/// Evaluates the `--check` gates; returns human-readable lines and
/// whether all gates passed.
pub fn check_report(report: &LoadReport, thresholds: &Thresholds) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    let mut gate = |pass: bool, line: String| {
        lines.push(format!("{} {line}", if pass { "ok  " } else { "FAIL" }));
        ok &= pass;
    };
    gate(
        report.failures == 0,
        format!("failures = {} (required: 0)", report.failures),
    );
    gate(
        report.hit_rate() >= thresholds.min_hit_rate,
        format!(
            "cache hit rate = {:.3} (required: >= {:.3})",
            report.hit_rate(),
            thresholds.min_hit_rate
        ),
    );
    gate(
        report.request_latency.p99_ms <= thresholds.max_p99_ms,
        format!(
            "p99 request latency = {:.3} ms (required: <= {:.1} ms)",
            report.request_latency.p99_ms, thresholds.max_p99_ms
        ),
    );
    gate(
        report.reconnects == 0,
        format!(
            "keep-alive reconnects = {} (required: 0)",
            report.reconnects
        ),
    );
    (lines, ok)
}

/// One keep-alive HTTP/1.1 client connection with response framing by
/// `Content-Length` (which the server always sends).
struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    connects: u64,
}

impl HttpClient {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            connects: 0,
        }
    }

    /// Re-opens beyond the first connect: keep-alive is not being
    /// honored (or the server closed on us).
    fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let result = self.request_inner(method, path, body);
        if result.is_err() {
            // The stream is not trustworthy after a transport error.
            self.stream = None;
        }
        result
    }

    fn request_inner(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, SOCKET_TIMEOUT)?;
            stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
            stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.connects += 1;
        }
        let stream = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: load\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(head.as_bytes())?;

        // Read headers.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head_text = String::from_utf8_lossy(&buf[..header_end]).to_string();
        let status: u16 = head_text
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "malformed status line"))?;
        let mut content_length = 0usize;
        let mut close = false;
        for line in head_text.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    std::io::Error::new(ErrorKind::InvalidData, "bad Content-Length")
                })?;
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
        let body_start = header_end + 4;
        while buf.len() < body_start + content_length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed mid-body",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        let body =
            String::from_utf8_lossy(&buf[body_start..body_start + content_length]).to_string();
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }
}

/// Per-client tally, merged after the join.
#[derive(Default)]
struct ClientTally {
    request_ms: Vec<f64>,
    job_ms: Vec<f64>,
    requests: u64,
    failures: u64,
    reconnects: u64,
    jobs_submitted: u64,
    jobs_completed: u64,
    batch_items: u64,
}

/// The shared pool of repeated instances: every client draws the same
/// texts, so repeats collide across clients (cache hits / dedup joins).
fn instance_pool(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = GeneratorConfig {
        task_count: 5,
        max_side: 3,
        max_duration: 3,
        arc_percent: 30,
    };
    (0..POOL_SIZE)
        .map(|_| format::format_instance(&random_instance(&config, &mut rng)))
        .collect()
}

/// A never-repeated instance, unique per (seed, client, op).
fn fresh_instance(seed: u64, client: usize, op: usize) -> String {
    let salt = (client as u64) << 32 | op as u64;
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0xfeed_f00d ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let config = GeneratorConfig {
        task_count: 5,
        max_side: 3,
        max_duration: 3,
        arc_percent: 30,
    };
    format::format_instance(&random_instance(&config, &mut rng))
}

/// A `POST /jobs` body for one instance.
fn job_body(name: &str, instance: &str) -> String {
    Json::Object(vec![
        ("kind".to_string(), Json::String("opp".to_string())),
        ("name".to_string(), Json::String(name.to_string())),
        ("instance".to_string(), Json::String(instance.to_string())),
    ])
    .to_json_string()
}

/// Submits one job and drives it to a terminal state over the client's
/// persistent connection.
fn run_job(client: &mut HttpClient, tally: &mut ClientTally, name: &str, instance: &str) {
    let body = job_body(name, instance);
    let start = Instant::now();
    let reply = timed_request(client, tally, "POST", "/jobs", &body);
    tally.jobs_submitted += 1;
    let Some((status, reply)) = reply else {
        tally.failures += 1;
        return;
    };
    if status != 202 {
        tally.failures += 1;
        return;
    }
    let Ok(doc) = Json::parse(&reply) else {
        tally.failures += 1;
        return;
    };
    let (Some(id), word) = (
        doc.get("id").and_then(Json::as_u64),
        doc.get("status").and_then(Json::as_str).unwrap_or(""),
    ) else {
        tally.failures += 1;
        return;
    };
    if word == "done" {
        // Cache hit: the job was born finished.
        tally.job_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        tally.jobs_completed += 1;
        return;
    }
    poll_job(client, tally, id, start);
}

/// Polls one job id to a terminal state, recording its latency.
fn poll_job(client: &mut HttpClient, tally: &mut ClientTally, id: u64, start: Instant) {
    let deadline = Instant::now() + JOB_DEADLINE;
    loop {
        let reply = timed_request(client, tally, "GET", &format!("/jobs/{id}"), "");
        let Some((status, reply)) = reply else {
            tally.failures += 1;
            return;
        };
        if status != 200 {
            tally.failures += 1;
            return;
        }
        let word = Json::parse(&reply)
            .ok()
            .and_then(|doc| doc.get("status").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_default();
        match word.as_str() {
            "queued" | "running" => {
                if Instant::now() > deadline {
                    tally.failures += 1;
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            "done" => {
                tally.job_ms.push(start.elapsed().as_secs_f64() * 1000.0);
                tally.jobs_completed += 1;
                return;
            }
            _ => {
                tally.failures += 1;
                return;
            }
        }
    }
}

/// Submits a batch and drives every admitted item to a terminal state.
fn run_batch(client: &mut HttpClient, tally: &mut ClientTally, items: &[(String, String)]) {
    let jobs: Vec<Json> = items
        .iter()
        .map(|(name, instance)| {
            Json::parse(&job_body(name, instance)).expect("own body is valid JSON")
        })
        .collect();
    let body = Json::Object(vec![("jobs".to_string(), Json::Array(jobs))]).to_json_string();
    let start = Instant::now();
    let reply = timed_request(client, tally, "POST", "/jobs:batch", &body);
    tally.batch_items += items.len() as u64;
    tally.jobs_submitted += items.len() as u64;
    let Some((status, reply)) = reply else {
        tally.failures += items.len() as u64;
        return;
    };
    if status != 200 {
        tally.failures += items.len() as u64;
        return;
    }
    let Ok(doc) = Json::parse(&reply) else {
        tally.failures += items.len() as u64;
        return;
    };
    let Some(entries) = doc.get("jobs").and_then(Json::as_array) else {
        tally.failures += items.len() as u64;
        return;
    };
    for entry in entries {
        match (
            entry.get("id").and_then(Json::as_u64),
            entry.get("status").and_then(Json::as_str),
        ) {
            (Some(_), Some("done")) => {
                tally.job_ms.push(start.elapsed().as_secs_f64() * 1000.0);
                tally.jobs_completed += 1;
            }
            (Some(id), _) => poll_job(client, tally, id, start),
            (None, _) => tally.failures += 1,
        }
    }
}

/// One timed HTTP round trip; `None` (plus nothing recorded) on a
/// transport error.
fn timed_request(
    client: &mut HttpClient,
    tally: &mut ClientTally,
    method: &str,
    path: &str,
    body: &str,
) -> Option<(u16, String)> {
    let t0 = Instant::now();
    let result = client.request(method, path, body);
    tally.requests += 1;
    match result {
        Ok(reply) => {
            tally.request_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
            Some(reply)
        }
        Err(_) => None,
    }
}

/// The script of one client thread.
fn client_loop(addr: SocketAddr, options: &LoadOptions, index: usize) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut client = HttpClient::new(addr);
    let pool = instance_pool(options.seed);
    let mut rng = StdRng::seed_from_u64(options.seed.wrapping_add(1 + index as u64));
    for op in 0..options.ops_per_client {
        let roll = rng.gen_range(0..100u32);
        if roll < REPEAT_PERCENT {
            let slot = rng.gen_range(0..pool.len());
            let instance = pool[slot].clone();
            run_job(&mut client, &mut tally, &format!("pool-{slot}"), &instance);
        } else if roll < REPEAT_PERCENT + BATCH_PERCENT {
            // Two pool draws plus one fresh item per batch: batches hit
            // the cache *and* feed it.
            let a = rng.gen_range(0..pool.len());
            let b = rng.gen_range(0..pool.len());
            let items = vec![
                (format!("pool-{a}"), pool[a].clone()),
                (format!("pool-{b}"), pool[b].clone()),
                (
                    format!("c{index}-op{op}-batch"),
                    fresh_instance(options.seed, index, op),
                ),
            ];
            run_batch(&mut client, &mut tally, &items);
        } else {
            let instance = fresh_instance(options.seed, index, op);
            run_job(
                &mut client,
                &mut tally,
                &format!("c{index}-op{op}"),
                &instance,
            );
        }
    }
    tally.reconnects = client.reconnects();
    tally
}

/// Value of one series in a Prometheus text exposition, as a float
/// (histogram sums need the fraction a counter scrape would truncate).
fn scrape_value(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            (series == name).then(|| value.parse::<f64>().ok())?
        })
        .unwrap_or(0.0)
}

/// Value of a counter in a Prometheus text exposition.
fn scrape_counter(exposition: &str, name: &str) -> u64 {
    scrape_value(exposition, name) as u64
}

/// Mean of a histogram family in milliseconds (`_sum / _count`); 0.0
/// before any observation.
fn scraped_mean_ms(exposition: &str, family: &str) -> f64 {
    let sum = scrape_value(exposition, &format!("{family}_sum"));
    let count = scrape_value(exposition, &format!("{family}_count"));
    if count > 0.0 {
        sum / count * 1000.0
    } else {
        0.0
    }
}

/// Submits one traced job and consumes its `/jobs/{id}/events` NDJSON
/// stream over a dedicated raw connection — [`HttpClient`] frames by
/// `Content-Length` and cannot read a chunked response. Returns the
/// number of stream lines, terminal end record included.
fn smoke_event_stream(addr: SocketAddr, seed: u64) -> Result<u64, String> {
    let mut client = HttpClient::new(addr);
    let doc = Json::Object(vec![
        ("kind".to_string(), Json::String("opp".to_string())),
        ("name".to_string(), Json::String("smoke-trace".to_string())),
        (
            "instance".to_string(),
            Json::String(fresh_instance(seed, 0xffff, 0)),
        ),
        ("trace".to_string(), Json::Bool(true)),
        // Force a real search so the stream carries events, not just the
        // end record.
        ("use_heuristics".to_string(), Json::Bool(false)),
    ])
    .to_json_string();
    let (status, reply) = client
        .request("POST", "/jobs", &doc)
        .map_err(|e| format!("traced submission failed: {e}"))?;
    if status != 202 {
        return Err(format!("traced submission returned {status}"));
    }
    let id = Json::parse(&reply)
        .ok()
        .and_then(|d| d.get("id").and_then(Json::as_u64))
        .ok_or("traced submission reply lacks an id")?;

    let mut stream = TcpStream::connect_timeout(&addr, SOCKET_TIMEOUT)
        .map_err(|e| format!("event stream connect failed: {e}"))?;
    stream
        .set_read_timeout(Some(JOB_DEADLINE))
        .map_err(|e| format!("event stream socket: {e}"))?;
    stream
        .write_all(format!("GET /jobs/{id}/events HTTP/1.1\r\nHost: load\r\n\r\n").as_bytes())
        .map_err(|e| format!("event stream request failed: {e}"))?;

    // Read headers.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("event stream read failed: {e}"))?;
        if n == 0 {
            return Err("server closed the event stream before headers".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_ascii_lowercase();
    if !head.starts_with("http/1.1 200") {
        return Err(format!(
            "event stream returned {}",
            head.lines().next().unwrap_or("<empty>")
        ));
    }
    if !head.contains("transfer-encoding: chunked") {
        return Err("event stream response is not chunked".to_string());
    }
    buf.drain(..header_end + 4);

    // Decode chunked framing until the terminating zero-size chunk.
    let mut body = String::new();
    loop {
        let line_end = loop {
            if let Some(pos) = buf.windows(2).position(|w| w == b"\r\n") {
                break pos;
            }
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("event stream read failed: {e}"))?;
            if n == 0 {
                return Err("server closed mid-stream".to_string());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let size = usize::from_str_radix(String::from_utf8_lossy(&buf[..line_end]).trim(), 16)
            .map_err(|_| "malformed chunk size".to_string())?;
        let frame_end = line_end + 2 + size + 2;
        while buf.len() < frame_end {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("event stream read failed: {e}"))?;
            if n == 0 {
                return Err("server closed mid-chunk".to_string());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        if &buf[frame_end - 2..frame_end] != b"\r\n" {
            return Err("chunk lacks its CRLF trailer".to_string());
        }
        if size == 0 {
            break;
        }
        body.push_str(&String::from_utf8_lossy(
            &buf[line_end + 2..line_end + 2 + size],
        ));
        buf.drain(..frame_end);
    }

    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    match lines.last() {
        Some(last) if last.contains("\"event\":\"end\"") => Ok(lines.len() as u64),
        Some(last) => Err(format!("stream ended without an end record: {last}")),
        None => Err("stream carried no lines at all".to_string()),
    }
}

/// Runs the workload and produces a report.
pub fn run(options: &LoadOptions) -> Result<LoadReport, String> {
    // Boot an in-process server unless pointed at an external one.
    let server = match &options.addr {
        Some(_) => None,
        None => Some(
            recopack_serve::Server::bind(&recopack_serve::ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: options.workers.max(1),
                queue_depth: options.clients * 8 + 16,
                max_connections: options.clients + 8,
                ..recopack_serve::ServeConfig::default()
            })
            .map_err(|e| format!("cannot bind in-process server: {e}"))?,
        ),
    };
    let addr: SocketAddr = match (&server, &options.addr) {
        (Some(server), _) => server.local_addr(),
        (None, Some(text)) => text
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {text}: {e}"))?
            .next()
            .ok_or_else(|| format!("{text} resolves to no address"))?,
        (None, None) => unreachable!("server booted when no addr given"),
    };

    let start = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients.max(1))
            .map(|index| scope.spawn(move || client_loop(addr, options, index)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    // The smoke preset additionally exercises one streamed `/events`
    // subscriber end to end before the final scrape.
    let trace_lines = if options.smoke {
        smoke_event_stream(addr, options.seed)?
    } else {
        0
    };

    // Final scrape for the server-side cache truth.
    let mut scraper = HttpClient::new(addr);
    let exposition = match scraper.request("GET", "/metrics", "") {
        Ok((200, body)) => body,
        Ok((status, _)) => return Err(format!("/metrics scrape returned {status}")),
        Err(e) => return Err(format!("/metrics scrape failed: {e}")),
    };

    if let Some(server) = server {
        server.shutdown();
        server.join();
    }

    let mut request_ms = Vec::new();
    let mut job_ms = Vec::new();
    let mut report = LoadReport {
        label: options.label.clone(),
        smoke: options.smoke,
        clients: options.clients.max(1),
        requests: 0,
        failures: 0,
        reconnects: 0,
        wall_s,
        throughput_rps: 0.0,
        request_latency: Percentiles::from_samples(&mut []),
        job_latency: Percentiles::from_samples(&mut []),
        jobs_submitted: 0,
        jobs_completed: 0,
        batch_items: 0,
        cache_hits: scrape_counter(&exposition, "recopack_cache_hits_total"),
        cache_misses: scrape_counter(&exposition, "recopack_cache_misses_total"),
        dedup_joins: scrape_counter(&exposition, "recopack_jobs_deduplicated_total"),
        queue_wait_mean_ms: scraped_mean_ms(&exposition, "recopack_job_queue_wait_seconds"),
        solve_mean_ms: scraped_mean_ms(&exposition, "recopack_job_solve_seconds"),
        trace_lines,
    };
    for mut tally in tallies {
        request_ms.append(&mut tally.request_ms);
        job_ms.append(&mut tally.job_ms);
        report.requests += tally.requests;
        report.failures += tally.failures;
        report.reconnects += tally.reconnects;
        report.jobs_submitted += tally.jobs_submitted;
        report.jobs_completed += tally.jobs_completed;
        report.batch_items += tally.batch_items;
    }
    report.request_latency = Percentiles::from_samples(&mut request_ms);
    report.job_latency = Percentiles::from_samples(&mut job_ms);
    report.throughput_rps = if wall_s > 0.0 {
        report.requests as f64 / wall_s
    } else {
        0.0
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::from_samples(&mut samples);
        assert_eq!(p.p50_ms, 51.0);
        assert_eq!(p.p99_ms, 99.0);
        assert_eq!(p.max_ms, 100.0);
        assert!((p.mean_ms - 50.5).abs() < 1e-9);
        let p = Percentiles::from_samples(&mut []);
        assert_eq!(p.p99_ms, 0.0);
    }

    #[test]
    fn pool_is_deterministic_and_fresh_instances_are_distinct() {
        assert_eq!(instance_pool(9), instance_pool(9));
        assert_ne!(instance_pool(9), instance_pool(10));
        assert_ne!(fresh_instance(9, 0, 0), fresh_instance(9, 0, 1));
        assert_ne!(fresh_instance(9, 0, 0), fresh_instance(9, 1, 0));
    }

    #[test]
    fn gates_fail_on_failures_and_low_hit_rate() {
        let mut report = LoadReport {
            label: "T".to_string(),
            smoke: true,
            clients: 1,
            requests: 10,
            failures: 0,
            reconnects: 0,
            wall_s: 0.5,
            throughput_rps: 20.0,
            request_latency: Percentiles::from_samples(&mut [1.0, 2.0]),
            job_latency: Percentiles::from_samples(&mut [3.0]),
            jobs_submitted: 4,
            jobs_completed: 4,
            batch_items: 0,
            cache_hits: 3,
            cache_misses: 1,
            dedup_joins: 0,
            queue_wait_mean_ms: 0.4,
            solve_mean_ms: 2.5,
            trace_lines: 0,
        };
        let thresholds = Thresholds::default();
        let (_, ok) = check_report(&report, &thresholds);
        assert!(ok);
        report.failures = 1;
        let (lines, ok) = check_report(&report, &thresholds);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.starts_with("FAIL")), "{lines:?}");
        report.failures = 0;
        report.cache_hits = 0;
        report.cache_misses = 100;
        let (_, ok) = check_report(&report, &thresholds);
        assert!(!ok);
    }

    /// The whole stack end to end: in-process server, keep-alive
    /// clients, a seeded mix, and the metrics scrape.
    #[test]
    fn smoke_run_against_an_in_process_server() {
        let report = run(&LoadOptions {
            clients: 2,
            ops_per_client: 8,
            seed: 11,
            smoke: true,
            workers: 2,
            ..LoadOptions::default()
        })
        .expect("run succeeds");
        assert_eq!(report.failures, 0, "{report:?}");
        assert_eq!(report.reconnects, 0, "keep-alive must hold");
        assert!(report.requests > 16, "{report:?}");
        assert_eq!(report.jobs_completed, report.jobs_submitted);
        assert!(
            report.cache_hits + report.dedup_joins > 0,
            "the repeated mix must produce shared work: {report:?}"
        );
        assert!(report.request_latency.p99_ms >= report.request_latency.p50_ms);
        // Real jobs ran, so the server-side phase split has observations
        // and the smoke preset's `/events` subscriber saw at least the
        // terminal end record.
        assert!(report.solve_mean_ms > 0.0, "{report:?}");
        assert!(report.queue_wait_mean_ms >= 0.0, "{report:?}");
        assert!(report.trace_lines >= 1, "{report:?}");
        // The report parses back as well-formed JSON.
        let doc = Json::parse(&report.to_json()).expect("report JSON parses");
        assert_eq!(
            doc.get("tool").and_then(Json::as_str),
            Some("recopack-load")
        );
        let hit_rate = doc
            .get("cache")
            .and_then(|c| c.get("hit_rate"))
            .and_then(Json::as_f64)
            .expect("cache.hit_rate");
        assert!((hit_rate - report.hit_rate()).abs() <= 5e-4, "{doc:?}");
        let phases = doc.get("server_phases").expect("server_phases section");
        assert!(
            phases
                .get("solve_mean_ms")
                .and_then(Json::as_f64)
                .is_some_and(|v| v > 0.0),
            "{doc:?}"
        );
    }
}
