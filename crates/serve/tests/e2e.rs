//! End-to-end tests: a real server on an ephemeral port, exercised with
//! raw `TcpStream` HTTP/1.1 requests exactly the way curl or a Prometheus
//! scraper would.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recopack_core::telemetry::stats_to_json;
use recopack_core::{Opp, SolverConfig};
use recopack_json::Json;
use recopack_model::format;
use recopack_model::generate::{random_instance, GeneratorConfig};
use recopack_serve::{ServeConfig, Server};

/// A trivially feasible two-task chain on a 2x2 chip.
const PAIR: &str = "chip 2 2\nhorizon 4\ntask a 2 2 2\ntask b 2 2 2\narc a b\n";

/// Infeasible by one task too many, with bounds and heuristics disabled in
/// the submission so the exhaustive refutation takes long enough to cancel.
fn hard_instance() -> String {
    hard_instance_with(12)
}

/// Variant of [`hard_instance`] with a chosen task count, for tests that
/// need several distinct hard instances (identical submissions would
/// otherwise dedup onto one in-flight solver run).
fn hard_instance_with(tasks: usize) -> String {
    let mut text = String::from("chip 6 6\nhorizon 2\n");
    for i in 0..tasks {
        text.push_str(&format!("task t{i} 2 2 2\n"));
    }
    text
}

/// Sends one HTTP/1.1 request on a fresh connection and returns
/// `(status, body)`. Asks the server to close afterwards, so reading to
/// EOF terminates promptly despite keep-alive being the default.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed response {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, body) = request(addr, "GET", path, "");
    let doc = Json::parse(&body).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}: {body}"));
    (status, doc)
}

/// Polls `GET /jobs/{id}` until `done(status_word)` holds or a deadline
/// expires, returning the job document.
fn poll_job(addr: SocketAddr, id: u64, done: impl Fn(&str) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, doc) = get_json(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "job {id} should exist");
        let word = doc
            .get("status")
            .and_then(Json::as_str)
            .expect("status field")
            .to_string();
        if done(&word) {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in state {word:?}"
        );
        // Short nap between polls; the deadline above, not a fixed retry
        // count, decides when to give up, so slow CI cannot flake this.
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Value of a series in a Prometheus text exposition, by exact
/// `name{labels}` prefix.
fn metric_value(exposition: &str, series: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        (name == series).then(|| value.parse().expect("metric value parses"))
    })
}

/// A persistent keep-alive connection for multi-request tests. Bytes
/// over-read past the current response (pipelined replies arrive
/// coalesced) are carried into the next [`TestConn::read_framed`] call.
struct TestConn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl TestConn {
    fn connect(addr: SocketAddr) -> Self {
        TestConn {
            stream: TcpStream::connect(addr).expect("connect"),
            carry: Vec::new(),
        }
    }

    /// Writes one request without asking the server to close
    /// (HTTP/1.1 keep-alive default).
    fn send(&mut self, method: &str, path: &str, body: &str) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.send_raw(head.as_bytes());
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send request");
    }

    /// Reads one `Content-Length`-framed response. Returns
    /// `(status, headers, body)`.
    fn read_framed(&mut self) -> (u16, String, String) {
        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk).expect("read headers");
            assert!(n > 0, "server closed mid-response: {buf:?}");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("malformed status line in {head:?}"));
        let content_length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().expect("numeric Content-Length"))
            })
            .expect("responses always carry Content-Length");
        let body_start = header_end + 4;
        while buf.len() < body_start + content_length {
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "server closed mid-body");
            buf.extend_from_slice(&chunk[..n]);
        }
        let end = body_start + content_length;
        let body = String::from_utf8_lossy(&buf[body_start..end]).to_string();
        self.carry = buf.split_off(end);
        (status, head, body)
    }

    /// Reads one `Transfer-Encoding: chunked` response through its
    /// terminating zero-size chunk, returning `(status, headers, decoded
    /// body)`. Bytes past the terminator (the next pipelined response)
    /// are carried over like in [`TestConn::read_framed`].
    fn read_chunked(&mut self) -> (u16, String, String) {
        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk).expect("read headers");
            assert!(n > 0, "server closed mid-response: {buf:?}");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("malformed status line in {head:?}"));
        assert!(
            head.to_ascii_lowercase()
                .contains("transfer-encoding: chunked"),
            "streamed response must be chunked: {head}"
        );
        let mut rest = buf.split_off(header_end + 4);
        let mut body = Vec::new();
        loop {
            let size_end = loop {
                if let Some(pos) = rest.windows(2).position(|w| w == b"\r\n") {
                    break pos;
                }
                let n = self.stream.read(&mut chunk).expect("read chunk size");
                assert!(n > 0, "server closed mid-chunk");
                rest.extend_from_slice(&chunk[..n]);
            };
            let size = usize::from_str_radix(
                std::str::from_utf8(&rest[..size_end]).expect("chunk size is UTF-8"),
                16,
            )
            .expect("hex chunk size");
            let data_start = size_end + 2;
            while rest.len() < data_start + size + 2 {
                let n = self.stream.read(&mut chunk).expect("read chunk data");
                assert!(n > 0, "server closed mid-chunk");
                rest.extend_from_slice(&chunk[..n]);
            }
            body.extend_from_slice(&rest[data_start..data_start + size]);
            assert_eq!(
                &rest[data_start + size..data_start + size + 2],
                b"\r\n",
                "chunk data must end in CRLF"
            );
            rest = rest.split_off(data_start + size + 2);
            if size == 0 {
                break;
            }
        }
        self.carry = rest;
        (status, head, String::from_utf8_lossy(&body).to_string())
    }

    /// Asserts the server sends nothing further and closes the stream.
    fn assert_eof(&mut self) {
        assert!(self.carry.is_empty(), "unread bytes: {:?}", self.carry);
        let mut rest = Vec::new();
        self.stream.read_to_end(&mut rest).expect("read EOF");
        assert!(rest.is_empty(), "server must have closed: {rest:?}");
    }
}

fn bind_test_server(workers: usize, queue_depth: usize) -> Server {
    Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

#[test]
fn served_opp_job_matches_direct_solve_and_shows_in_metrics() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    let (status, health) = get_json(addr, "/healthz");
    assert_eq!(status, 200, "fresh server is healthy");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    // Heuristics off so the job runs a real branch-and-bound search (the
    // solver-telemetry series below stay at zero for heuristic solves).
    let mut body =
        String::from("{\"kind\":\"opp\",\"name\":\"pair\",\"use_heuristics\":false,\"instance\":");
    recopack_core::telemetry::push_json_str(&mut body, PAIR);
    body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "submission accepted: {reply}");
    let id = Json::parse(&reply)
        .expect("submission reply is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id field");

    let job = poll_job(addr, id, |s| s != "queued" && s != "running");
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(job.get("outcome").and_then(Json::as_str), Some("feasible"));
    let placement = job
        .get("placement")
        .and_then(Json::as_str)
        .expect("feasible job carries a placement");
    assert!(placement.contains('a') && placement.contains('b'));

    // The served report must agree exactly with a direct in-process solve
    // under the same configuration.
    let report = job.get("report").expect("finished job carries a report");
    assert_eq!(report.get("command").and_then(Json::as_str), Some("opp"));
    assert_eq!(report.get("instance").and_then(Json::as_str), Some("pair"));
    let instance = format::parse_instance(PAIR)
        .expect("pair instance parses")
        .with_transitive_closure();
    let (_, direct_stats) = Opp::new(&instance)
        .with_config(SolverConfig {
            threads: 1,
            use_heuristics: false,
            ..SolverConfig::default()
        })
        .solve_with_stats();
    let direct = Json::parse(&stats_to_json(&direct_stats)).expect("stats JSON parses");
    assert_eq!(
        report.get("stats"),
        Some(&direct),
        "served stats must match a direct solve"
    );

    // The exposition is well-formed and shows exactly one completed job.
    let (status, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for line in exposition.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("name value pair");
        assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line}");
    }
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_accepted_total{kind=\"opp\"}"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_completed_total{kind=\"opp\"}"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_job_solve_seconds_count"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_job_queue_wait_seconds_count"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_cache_canonicalization_seconds_count"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_searches_total"),
        Some(1.0)
    );
    let nodes = metric_value(&exposition, "recopack_solver_nodes_total").expect("nodes series");
    assert_eq!(nodes as u64, direct_stats.nodes);

    server.shutdown();
    server.join();
}

#[test]
fn delete_cancels_a_running_search_and_counts_it() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    let mut body = String::from(
        "{\"kind\":\"opp\",\"name\":\"hard\",\"use_bounds\":false,\
         \"use_heuristics\":false,\"time_limit_ms\":60000,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut body, &hard_instance());
    body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "submission accepted: {reply}");
    let id = Json::parse(&reply)
        .expect("reply is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id field");

    poll_job(addr, id, |s| s == "running");
    let (status, reply) = request(addr, "DELETE", &format!("/jobs/{id}"), "");
    assert_eq!(status, 202, "running job starts cancelling: {reply}");

    let job = poll_job(addr, id, |s| s != "queued" && s != "running");
    assert_eq!(
        job.get("status").and_then(Json::as_str),
        Some("cancelled"),
        "{job:?}"
    );
    assert_eq!(job.get("outcome").and_then(Json::as_str), Some("cancelled"));

    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_cancelled_total{kind=\"opp\"}"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_completed_total{kind=\"opp\"}"),
        Some(0.0)
    );

    // Cancelling a finished job is refused.
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{id}"), "");
    assert_eq!(status, 409);

    server.shutdown();
    server.join();
}

#[test]
fn saturated_queue_rejects_submissions_and_reports_unhealthy() {
    let server = bind_test_server(1, 1);
    let addr = server.local_addr();

    let submit = |name: &str, instance: &str| -> (u16, String) {
        let mut body = format!(
            "{{\"kind\":\"opp\",\"name\":\"{name}\",\"use_bounds\":false,\
             \"use_heuristics\":false,\"time_limit_ms\":60000,\"instance\":"
        );
        recopack_core::telemetry::push_json_str(&mut body, instance);
        body.push('}');
        request(addr, "POST", "/jobs", &body)
    };

    // Three *distinct* hard instances: identical ones would dedup onto a
    // single in-flight run instead of filling the queue.
    let (status, reply) = submit("occupant", &hard_instance_with(12));
    assert_eq!(status, 202);
    let occupant = Json::parse(&reply)
        .expect("reply is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    poll_job(addr, occupant, |s| s == "running");

    // The single queue slot fills; the server reports saturation.
    let (status, reply) = submit("waiter", &hard_instance_with(13));
    assert_eq!(status, 202);
    let waiter = Json::parse(&reply)
        .expect("reply is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    let (status, health) = get_json(addr, "/healthz");
    assert_eq!(status, 503);
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("saturated")
    );

    let (status, reply) = submit("overflow", &hard_instance_with(14));
    assert_eq!(status, 503, "full queue refuses work: {reply}");

    // Malformed submissions are counted under the closed `unknown` label.
    let (status, _) = request(addr, "POST", "/jobs", "{\"kind\":\"sudoku\"}");
    assert_eq!(status, 400);

    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_rejected_total{kind=\"opp\"}"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(
            &exposition,
            "recopack_jobs_rejected_total{kind=\"unknown\"}"
        ),
        Some(1.0)
    );
    assert_eq!(metric_value(&exposition, "recopack_queue_depth"), Some(1.0));

    // Cancel the queued waiter first (it never runs), then the occupant.
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{waiter}"), "");
    assert_eq!(status, 200, "queued job cancels immediately");
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{occupant}"), "");
    assert_eq!(status, 202);
    poll_job(addr, occupant, |s| s != "queued" && s != "running");

    let (status, health) = get_json(addr, "/healthz");
    assert_eq!(status, 200, "queue drained, healthy again: {health:?}");

    let (_, listing) = get_json(addr, "/jobs");
    let jobs = listing
        .get("jobs")
        .and_then(Json::as_array)
        .expect("jobs array");
    assert_eq!(jobs.len(), 2, "occupant and waiter are both known");

    server.shutdown();
    server.join();
}

#[test]
fn keep_alive_serves_sequential_and_pipelined_requests_on_one_stream() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    let mut conn = TestConn::connect(addr);

    // Two sequential requests over the same connection.
    conn.send("GET", "/healthz", "");
    let (status, head, _) = conn.read_framed();
    assert_eq!(status, 200);
    assert!(
        head.contains("Connection: keep-alive"),
        "HTTP/1.1 persists by default: {head}"
    );
    conn.send("GET", "/healthz", "");
    let (status, _, body) = conn.read_framed();
    assert_eq!(status, 200, "second request on the same stream: {body}");

    // Two pipelined requests written back to back, answered in order.
    conn.send("GET", "/healthz", "");
    conn.send("GET", "/metrics", "");
    let (status, _, body) = conn.read_framed();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\""), "healthz answers first: {body}");
    let (status, _, exposition) = conn.read_framed();
    assert_eq!(status, 200);
    assert!(
        exposition.contains("recopack_http_connections_total"),
        "metrics answers second"
    );
    // Everything above traveled over a single accepted connection.
    assert_eq!(
        metric_value(&exposition, "recopack_http_connections_total"),
        Some(1.0)
    );

    // An explicit close is honored: response says so, then EOF.
    conn.send_raw(
        b"GET /healthz HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\
          Content-Length: 0\r\n\r\n",
    );
    let (status, head, _) = conn.read_framed();
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    conn.assert_eof();

    server.shutdown();
    server.join();
}

#[test]
fn protocol_errors_are_reported_without_killing_the_connection() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();
    let mut conn = TestConn::connect(addr);

    // Malformed JSON body: the framing is intact, so after the 400 the
    // same connection keeps serving.
    conn.send("POST", "/jobs", "{not json");
    let (status, head, _) = conn.read_framed();
    assert_eq!(status, 400);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    conn.send("GET", "/healthz", "");
    let (status, _, _) = conn.read_framed();
    assert_eq!(status, 200, "connection survives the 400");

    // Oversized body (above the 4 MiB limit, below the drain bound): the
    // server swallows it, answers 413, and keeps the connection.
    let oversized = "x".repeat(4 * 1024 * 1024 + 1);
    conn.send("POST", "/jobs", &oversized);
    let (status, _, body) = conn.read_framed();
    assert_eq!(status, 413, "{body}");
    conn.send("GET", "/healthz", "");
    let (status, _, _) = conn.read_framed();
    assert_eq!(status, 200, "connection survives the 413");

    // A garbled request line leaves the stream unframeable: 400, close.
    conn.send_raw(b"NONSENSE\r\n\r\n");
    let (status, head, _) = conn.read_framed();
    assert_eq!(status, 400);
    assert!(head.contains("Connection: close"), "{head}");
    conn.assert_eof();

    server.shutdown();
    server.join();
}

#[test]
fn cached_hit_returns_identical_report_without_new_solver_work() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    let mut body =
        String::from("{\"kind\":\"opp\",\"name\":\"pair\",\"use_heuristics\":false,\"instance\":");
    recopack_core::telemetry::push_json_str(&mut body, PAIR);
    body.push('}');

    // First submission: a miss that runs the solver.
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let first = Json::parse(&reply)
        .expect("reply is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    let first_job = poll_job(addr, first, |s| s != "queued" && s != "running");
    assert_eq!(first_job.get("status").and_then(Json::as_str), Some("done"));

    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_cache_misses_total"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_cache_hits_total"),
        Some(0.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_job_nodes_count"),
        Some(1.0),
        "one solver run so far"
    );

    // Second, identical submission: born finished, straight from cache.
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let reply = Json::parse(&reply).expect("reply is JSON");
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("done"),
        "a cache hit is done at submission time"
    );
    let second = reply.get("id").and_then(Json::as_u64).expect("id");
    let second_job = poll_job(addr, second, |s| s != "queued" && s != "running");

    // The replayed report and placement are identical to the original —
    // same serialized bytes, stats and all.
    assert_eq!(
        first_job.get("report").expect("report").to_json_string(),
        second_job.get("report").expect("report").to_json_string(),
        "cached report must be identical to the original"
    );
    assert_eq!(
        first_job.get("placement").and_then(Json::as_str),
        second_job.get("placement").and_then(Json::as_str)
    );

    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_cache_hits_total"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_cache_misses_total"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_job_nodes_count"),
        Some(1.0),
        "the hit must not spend a second solver run"
    );
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_completed_total{kind=\"opp\"}"),
        Some(2.0),
        "both clients got their answer"
    );
    assert_eq!(
        metric_value(&exposition, "recopack_cache_entries"),
        Some(1.0)
    );

    server.shutdown();
    server.join();
}

#[test]
fn inflight_dedup_shares_one_solver_run_between_identical_jobs() {
    // One worker: the occupant holds it while two identical submissions
    // pile up behind, forcing a deterministic dedup join.
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    let mut occupant_body = String::from(
        "{\"kind\":\"opp\",\"name\":\"occupant\",\"use_bounds\":false,\
         \"use_heuristics\":false,\"time_limit_ms\":60000,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut occupant_body, &hard_instance());
    occupant_body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &occupant_body);
    assert_eq!(status, 202, "{reply}");
    let occupant = Json::parse(&reply)
        .expect("reply is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    poll_job(addr, occupant, |s| s == "running");

    // Two identical submissions while the worker is busy: the second
    // joins the first's in-flight group instead of taking a queue slot.
    let mut body =
        String::from("{\"kind\":\"opp\",\"name\":\"first\",\"use_heuristics\":false,\"instance\":");
    recopack_core::telemetry::push_json_str(&mut body, PAIR);
    body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let driver = Json::parse(&reply)
        .expect("reply is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    let mut body = String::from(
        "{\"kind\":\"opp\",\"name\":\"second\",\"use_heuristics\":false,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut body, PAIR);
    body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let follower = Json::parse(&reply)
        .expect("reply is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");

    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_deduplicated_total"),
        Some(1.0),
        "the second identical submission joins in flight"
    );

    // Free the worker; the shared run executes once and publishes to
    // both subscribers.
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{occupant}"), "");
    assert_eq!(status, 202);
    let driver_job = poll_job(addr, driver, |s| s != "queued" && s != "running");
    let follower_job = poll_job(addr, follower, |s| s != "queued" && s != "running");
    assert_eq!(
        driver_job.get("status").and_then(Json::as_str),
        Some("done")
    );
    assert_eq!(
        follower_job.get("status").and_then(Json::as_str),
        Some("done")
    );
    assert_eq!(
        driver_job.get("report").expect("report").to_json_string(),
        follower_job.get("report").expect("report").to_json_string(),
        "both subscribers receive the same report"
    );

    // The shared stats agree with a direct in-process solve.
    let instance = format::parse_instance(PAIR)
        .expect("pair parses")
        .with_transitive_closure();
    let (_, direct_stats) = Opp::new(&instance)
        .with_config(SolverConfig {
            threads: 1,
            use_heuristics: false,
            ..SolverConfig::default()
        })
        .solve_with_stats();
    let direct = Json::parse(&stats_to_json(&direct_stats)).expect("stats JSON parses");
    assert_eq!(
        driver_job.get("report").and_then(|r| r.get("stats")),
        Some(&direct)
    );

    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_job_nodes_count"),
        Some(2.0),
        "exactly two solver runs: the occupant and ONE shared run"
    );
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_completed_total{kind=\"opp\"}"),
        Some(2.0)
    );
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_cancelled_total{kind=\"opp\"}"),
        Some(1.0)
    );

    server.shutdown();
    server.join();
}

#[test]
fn unsubscribing_a_deduped_job_keeps_the_shared_run_alive() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    let mut occupant_body = String::from(
        "{\"kind\":\"opp\",\"name\":\"occupant\",\"use_bounds\":false,\
         \"use_heuristics\":false,\"time_limit_ms\":60000,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut occupant_body, &hard_instance());
    occupant_body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &occupant_body);
    assert_eq!(status, 202, "{reply}");
    let occupant = Json::parse(&reply)
        .expect("reply is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    poll_job(addr, occupant, |s| s == "running");

    let submit_pair = |name: &str| -> u64 {
        let mut body = format!(
            "{{\"kind\":\"opp\",\"name\":\"{name}\",\"use_heuristics\":false,\"instance\":"
        );
        recopack_core::telemetry::push_json_str(&mut body, PAIR);
        body.push('}');
        let (status, reply) = request(addr, "POST", "/jobs", &body);
        assert_eq!(status, 202, "{reply}");
        Json::parse(&reply)
            .expect("reply is JSON")
            .get("id")
            .and_then(Json::as_u64)
            .expect("id")
    };
    let driver = submit_pair("driver");
    let follower = submit_pair("follower");

    // Unsubscribing the driver cancels only that job; the follower
    // inherits the pending run.
    let (status, reply) = request(addr, "DELETE", &format!("/jobs/{driver}"), "");
    assert_eq!(status, 200, "unsubscribe completes immediately: {reply}");
    let driver_job = poll_job(addr, driver, |s| s != "queued" && s != "running");
    assert_eq!(
        driver_job.get("status").and_then(Json::as_str),
        Some("cancelled")
    );
    assert_eq!(
        driver_job.get("outcome").and_then(Json::as_str),
        Some("unsubscribed from shared run")
    );

    // Free the worker: the run still happens and the follower gets it.
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{occupant}"), "");
    assert_eq!(status, 202);
    let follower_job = poll_job(addr, follower, |s| s != "queued" && s != "running");
    assert_eq!(
        follower_job.get("status").and_then(Json::as_str),
        Some("done"),
        "the surviving subscriber still receives the result: {follower_job:?}"
    );
    assert_eq!(
        follower_job.get("outcome").and_then(Json::as_str),
        Some("feasible")
    );

    // Deleting the finished follower is refused like any finished job.
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{follower}"), "");
    assert_eq!(status, 409);

    server.shutdown();
    server.join();
}

/// Id field of a submission reply.
fn job_id(reply: &str) -> u64 {
    Json::parse(reply)
        .expect("reply is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id field")
}

/// The cache key is invariant under task relabeling and reordering, so a
/// hit (or an in-flight join) may pair submissions whose task names
/// differ or whose identical names are bound to different geometries.
/// The served placement must always name *this* submission's tasks and
/// be valid for *its* task bindings.
#[test]
fn shared_and_cached_placements_carry_each_submissions_own_task_names() {
    // One abstract instance — a three-task chain with distinct
    // geometries — under three presentations: the base, a renamed and
    // reordered twin, and one that reuses the base's names bound to
    // *different* tasks.
    const BASE: &str =
        "chip 4 4\nhorizon 6\ntask a 1 2 3\ntask b 2 2 1\ntask c 3 1 2\narc a b\narc b c\n";
    const RENAMED: &str =
        "chip 4 4\nhorizon 6\ntask z 3 1 2\ntask y 2 2 1\ntask x 1 2 3\narc x y\narc y z\n";
    const SWAPPED: &str =
        "chip 4 4\nhorizon 6\ntask a 3 1 2\ntask b 2 2 1\ntask c 1 2 3\narc c b\narc b a\n";

    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    // Block the single worker so BASE and RENAMED form one dedup group.
    let mut occupant_body = String::from(
        "{\"kind\":\"opp\",\"name\":\"occupant\",\"use_bounds\":false,\
         \"use_heuristics\":false,\"time_limit_ms\":60000,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut occupant_body, &hard_instance());
    occupant_body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &occupant_body);
    assert_eq!(status, 202, "{reply}");
    let occupant = job_id(&reply);
    poll_job(addr, occupant, |s| s == "running");

    let submit = |name: &str, instance: &str| -> u64 {
        let mut body = format!("{{\"kind\":\"opp\",\"name\":\"{name}\",\"instance\":");
        recopack_core::telemetry::push_json_str(&mut body, instance);
        body.push('}');
        let (status, reply) = request(addr, "POST", "/jobs", &body);
        assert_eq!(status, 202, "{reply}");
        job_id(&reply)
    };
    let driver = submit("driver", BASE);
    let joiner = submit("joiner", RENAMED);
    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_deduplicated_total"),
        Some(1.0),
        "the relabeled twin joins the in-flight run"
    );

    // Free the worker; the shared run publishes to both subscribers.
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{occupant}"), "");
    assert_eq!(status, 202);

    // Each subscriber's placement must parse against its *own* instance
    // (unknown task names fail the parse) and verify from first
    // principles (a name bound to the wrong geometry or chain position
    // fails bounds, collision, or precedence checks).
    let placement_of = |id: u64, instance_text: &str| -> String {
        let job = poll_job(addr, id, |s| s != "queued" && s != "running");
        assert_eq!(
            job.get("status").and_then(Json::as_str),
            Some("done"),
            "{job:?}"
        );
        let text = job
            .get("placement")
            .and_then(Json::as_str)
            .expect("feasible job carries a placement")
            .to_string();
        let instance = format::parse_instance(instance_text)
            .expect("instance parses")
            .with_transitive_closure();
        let placement = format::parse_placement(&text, &instance)
            .expect("placement names this submission's tasks");
        placement
            .verify(&instance)
            .expect("placement is valid for this submission's task bindings");
        text
    };
    let base_text = placement_of(driver, BASE);
    assert!(
        base_text.contains("place a ") && !base_text.contains("place x "),
        "{base_text}"
    );
    let renamed_text = placement_of(joiner, RENAMED);
    assert!(
        renamed_text.contains("place x ") && !renamed_text.contains("place a "),
        "{renamed_text}"
    );

    // The third presentation resolves from the cache; its same-named
    // tasks have different geometries, so only a correctly re-rendered
    // placement verifies.
    let third = submit("swapped", SWAPPED);
    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_cache_hits_total"),
        Some(1.0),
        "the swapped presentation hits the cache"
    );
    placement_of(third, SWAPPED);

    server.shutdown();
    server.join();
}

/// Cancelling the sole subscriber of a *running* job retires its dedup
/// group immediately: an identical submission arriving in the window
/// before the solver unwinds must start a fresh run, not join the
/// cancelled one and be published "cancelled".
#[test]
fn resubmitting_after_cancelling_a_running_job_starts_a_fresh_run() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    let mut body = String::from(
        "{\"kind\":\"opp\",\"name\":\"victim\",\"use_bounds\":false,\
         \"use_heuristics\":false,\"time_limit_ms\":60000,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut body, &hard_instance());
    body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let victim = job_id(&reply);
    poll_job(addr, victim, |s| s == "running");

    let (status, _) = request(addr, "DELETE", &format!("/jobs/{victim}"), "");
    assert_eq!(status, 202);

    // Identical bytes, resubmitted while the cancelled run unwinds.
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let fresh = job_id(&reply);
    assert_ne!(fresh, victim);

    // The victim ends cancelled; the resubmission gets its own solver
    // run (it would never reach "running" had it joined the old group).
    let victim_job = poll_job(addr, victim, |s| s != "queued" && s != "running");
    assert_eq!(
        victim_job.get("status").and_then(Json::as_str),
        Some("cancelled")
    );
    poll_job(addr, fresh, |s| s == "running");
    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_deduplicated_total"),
        Some(0.0),
        "the resubmission must not join the cancelled run"
    );

    let (status, _) = request(addr, "DELETE", &format!("/jobs/{fresh}"), "");
    assert_eq!(status, 202);
    poll_job(addr, fresh, |s| s != "queued" && s != "running");

    server.shutdown();
    server.join();
}

#[test]
fn batch_submissions_round_trip_with_per_item_outcomes() {
    let server = bind_test_server(1, 8);
    let addr = server.local_addr();

    // A good item and a bad one in a single batch: the bad item is
    // rejected in place without poisoning the good one.
    let mut batch = String::from(
        "{\"jobs\":[{\"kind\":\"opp\",\"name\":\"batched\",\"use_heuristics\":false,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut batch, PAIR);
    batch.push_str("},{\"kind\":\"sudoku\"}]}");
    let (status, reply) = request(addr, "POST", "/jobs:batch", &batch);
    assert_eq!(status, 200, "{reply}");
    let doc = Json::parse(&reply).expect("batch reply is JSON");
    let entries = doc
        .get("jobs")
        .and_then(Json::as_array)
        .expect("jobs array");
    assert_eq!(entries.len(), 2);
    let id = entries[0].get("id").and_then(Json::as_u64).expect("id");
    assert_eq!(
        entries[1].get("status").and_then(Json::as_str),
        Some("rejected")
    );
    assert_eq!(entries[1].get("code").and_then(Json::as_u64), Some(400));
    assert!(entries[1].get("error").and_then(Json::as_str).is_some());

    let job = poll_job(addr, id, |s| s != "queued" && s != "running");
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(job.get("outcome").and_then(Json::as_str), Some("feasible"));

    // A bare top-level array works too.
    let mut batch =
        String::from("[{\"kind\":\"opp\",\"name\":\"bare\",\"use_heuristics\":false,\"instance\":");
    recopack_core::telemetry::push_json_str(&mut batch, PAIR);
    batch.push_str("}]");
    let (status, reply) = request(addr, "POST", "/jobs:batch", &batch);
    assert_eq!(status, 200, "{reply}");
    let doc = Json::parse(&reply).expect("batch reply is JSON");
    let entries = doc
        .get("jobs")
        .and_then(Json::as_array)
        .expect("jobs array");
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].get("status").and_then(Json::as_str),
        Some("done"),
        "identical instance resolves straight from the cache: {reply}"
    );

    // Degenerate batches are refused as a whole.
    let (status, _) = request(addr, "POST", "/jobs:batch", "[]");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/jobs:batch", "{\"jobs\":3}");
    assert_eq!(status, 400);

    server.shutdown();
    server.join();
}

#[test]
fn traced_job_streams_progress_and_events_and_untraced_runs_stay_pristine() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    // A long-running traced job: an exhaustive infeasibility refutation
    // that only a cancel will stop within the test's lifetime.
    let mut body = String::from(
        "{\"kind\":\"opp\",\"name\":\"traced\",\"trace\":true,\"use_bounds\":false,\
         \"use_heuristics\":false,\"time_limit_ms\":60000,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut body, &hard_instance());
    body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let id = job_id(&reply);

    // Subscribe to the event stream on a keep-alive connection while the
    // job runs; the response stays open until the job is terminal.
    let mut events_conn = TestConn::connect(addr);
    events_conn.send("GET", &format!("/jobs/{id}/events"), "");

    // Progress while running: poll until the snapshot shows real search
    // work and the stream subscriber.
    let deadline = Instant::now() + Duration::from_secs(60);
    let snapshot = loop {
        let (status, doc) = get_json(addr, &format!("/jobs/{id}/progress"));
        assert_eq!(status, 200);
        let word = doc
            .get("status")
            .and_then(Json::as_str)
            .expect("status field")
            .to_string();
        assert!(
            word == "queued" || word == "running",
            "the hard job must still be live, got {word:?}"
        );
        let nodes = doc.get("nodes").and_then(Json::as_u64).unwrap_or(0);
        let subscribers = doc
            .get("trace")
            .and_then(|t| t.get("subscribers"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if word == "running" && nodes > 0 && subscribers == 1 {
            break doc;
        }
        assert!(
            Instant::now() < deadline,
            "no running snapshot with nodes > 0 and one subscriber: {nodes} nodes"
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(
        snapshot
            .get("solve_ms")
            .and_then(Json::as_f64)
            .is_some_and(|ms| ms > 0.0),
        "running job accrues solve time"
    );
    assert!(
        snapshot
            .get("depth_profile")
            .and_then(Json::as_array)
            .is_some_and(|p| !p.is_empty()),
        "branching search populates the depth profile"
    );
    assert!(
        snapshot
            .get("nodes_per_sec")
            .and_then(Json::as_f64)
            .is_some_and(|rate| rate > 0.0),
        "live node rate is reported"
    );

    // Let the subscriber observe a real window of the search before
    // stopping it: the poll above can succeed within a millisecond of the
    // subscription, and a window that small may carry only a single event.
    std::thread::sleep(Duration::from_millis(150));

    // Stop the job; the worker publishes `cancelled` at its next budget
    // checkpoint and the event stream closes behind it.
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{id}"), "");
    assert_eq!(status, 202);
    poll_job(addr, id, |s| s == "cancelled");

    // The stream delivers NDJSON search events and a final end record,
    // all on the same keep-alive connection.
    let (status, _, ndjson) = events_conn.read_chunked();
    assert_eq!(status, 200);
    let lines: Vec<&str> = ndjson.lines().collect();
    assert!(
        lines.len() >= 2,
        "at least one event plus the end record: {} lines",
        lines.len()
    );
    for line in &lines {
        Json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e}"));
    }
    assert!(
        lines[..lines.len() - 1]
            .iter()
            .any(|l| l.contains("\"event\":\"branch\"")),
        "stream carries real search events; got {} lines, first: {:?}",
        lines.len(),
        &lines[..lines.len().min(5)]
    );
    let end = Json::parse(lines.last().expect("end record")).expect("end record is JSON");
    assert_eq!(end.get("event").and_then(Json::as_str), Some("end"));
    assert_eq!(end.get("job").and_then(Json::as_u64), Some(id));
    assert_eq!(end.get("status").and_then(Json::as_str), Some("cancelled"));
    assert!(
        end.get("dropped").and_then(Json::as_u64).is_some(),
        "end record reports the subscriber's dropped count"
    );

    // The chunked framing was exact: the connection serves another
    // request afterwards.
    events_conn.send("GET", "/healthz", "");
    let (status, _, _) = events_conn.read_framed();
    assert_eq!(status, 200, "keep-alive connection survives the stream");

    // An untraced job is byte-identical to a direct solve: no subscriber
    // or journal overhead leaks into its statistics.
    let mut body =
        String::from("{\"kind\":\"opp\",\"name\":\"pair\",\"use_heuristics\":false,\"instance\":");
    recopack_core::telemetry::push_json_str(&mut body, PAIR);
    body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let untraced = job_id(&reply);
    let job = poll_job(addr, untraced, |s| s != "queued" && s != "running");
    let instance = format::parse_instance(PAIR)
        .expect("pair instance parses")
        .with_transitive_closure();
    let (_, direct_stats) = Opp::new(&instance)
        .with_config(SolverConfig {
            threads: 1,
            use_heuristics: false,
            ..SolverConfig::default()
        })
        .solve_with_stats();
    let direct = Json::parse(&stats_to_json(&direct_stats)).expect("stats JSON parses");
    assert_eq!(
        job.get("report").and_then(|r| r.get("stats")),
        Some(&direct),
        "untraced served stats must match a direct solve byte-for-byte"
    );

    // Untraced jobs have no stream to serve (409), and their progress
    // snapshot reports no trace; unknown jobs 404 on both endpoints.
    let (status, doc) = get_json(addr, &format!("/jobs/{untraced}/progress"));
    assert_eq!(status, 200);
    assert_eq!(doc.get("trace"), Some(&Json::Null));
    let (status, _) = request(addr, "GET", &format!("/jobs/{untraced}/events"), "");
    assert_eq!(status, 409);

    // An untraced job that searches to exhaustion: five 2x2x2 modules on a
    // 4x4 chip with horizon 2, a 209-node proof. Once it is done, its
    // progress and the solver counters hold exactly the report's nodes.
    let nodes_total = || {
        let (_, exposition) = request(addr, "GET", "/metrics", "");
        assert_eq!(
            metric_value(&exposition, "recopack_search_events_total"),
            None
        );
        metric_value(&exposition, "recopack_solver_nodes_total").expect("nodes series") as u64
    };
    let nodes_before = nodes_total();
    let quads = (0..5).fold(String::from("chip 4 4\nhorizon 2\n"), |text, i| {
        text + &format!("task t{i} 2 2 2\n")
    });
    let search_only = |kind: &str, instance: &str| {
        let mut body = format!(
            "{{\"kind\":\"{kind}\",\"use_bounds\":false,\"use_heuristics\":false,\"instance\":"
        );
        recopack_core::telemetry::push_json_str(&mut body, instance);
        body.push('}');
        let (status, reply) = request(addr, "POST", "/jobs", &body);
        assert_eq!(status, 202, "{reply}");
        job_id(&reply)
    };
    let exhausted = search_only("opp", &quads);
    let job = poll_job(addr, exhausted, |s| s != "queued" && s != "running");
    let report_nodes = job
        .get("report")
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get("nodes"))
        .and_then(Json::as_u64);
    assert_eq!(report_nodes, Some(209));
    let (_, doc) = get_json(addr, &format!("/jobs/{exhausted}/progress"));
    assert_eq!(doc.get("nodes").and_then(Json::as_u64), Some(209));
    assert_eq!(nodes_total() - nodes_before, 209);

    // A BMP job on the hard instance, cancelled once it has searched: the
    // flight recorder keeps the nodes it explored.
    let bmp = search_only("bmp", &hard_instance());
    let deadline = Instant::now() + Duration::from_secs(60);
    let progress = |id: u64| get_json(addr, &format!("/jobs/{id}/progress")).1;
    while progress(bmp).get("nodes").and_then(Json::as_u64) == Some(0) {
        assert!(Instant::now() < deadline, "the BMP job never searched");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{bmp}"), "");
    assert_eq!(status, 202);
    poll_job(addr, bmp, |s| s == "cancelled");
    let (_, recorder) = get_json(addr, "/debug/jobs");
    let jobs = recorder.get("jobs").and_then(Json::as_array).expect("jobs");
    let entry = jobs
        .iter()
        .find(|job| job.get("id").and_then(Json::as_u64) == Some(bmp));
    let nodes = entry
        .and_then(|job| job.get("nodes"))
        .and_then(Json::as_u64);
    assert!(nodes > Some(0), "{entry:?}");

    let (status, _) = request(addr, "GET", "/jobs/999999/progress", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/jobs/999999/events", "");
    assert_eq!(status, 404);

    server.shutdown();
    server.join();
}

#[test]
fn request_ids_correlate_submissions_and_land_in_the_flight_recorder() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    // A client-supplied X-Request-Id is echoed on the response and
    // attached to the job it admitted.
    let mut body = String::from(
        "{\"kind\":\"opp\",\"name\":\"tagged\",\"use_heuristics\":false,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut body, PAIR);
    body.push('}');
    let mut conn = TestConn::connect(addr);
    conn.send_raw(
        format!(
            "POST /jobs HTTP/1.1\r\nHost: e2e\r\nX-Request-Id: corr-e2e-1\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    let (status, head, reply) = conn.read_framed();
    assert_eq!(status, 202, "{reply}");
    assert!(
        head.contains("X-Request-Id: corr-e2e-1"),
        "response echoes the supplied id: {head}"
    );
    let id = job_id(&reply);
    let job = poll_job(addr, id, |s| s != "queued" && s != "running");
    assert_eq!(
        job.get("request_id").and_then(Json::as_str),
        Some("corr-e2e-1"),
        "job record carries the submission's request id"
    );

    // A malformed id (spaces) is replaced with a generated one.
    conn.send_raw(
        format!(
            "POST /jobs HTTP/1.1\r\nHost: e2e\r\nX-Request-Id: not a valid id\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    let (status, head, reply) = conn.read_framed();
    assert_eq!(status, 202, "{reply}");
    assert!(
        head.contains("X-Request-Id: req-"),
        "unusable ids are replaced, not echoed: {head}"
    );

    // The flight recorder saw both jobs, newest first, with the
    // correlation id, verdict, and how each result was produced (the
    // second submission hit the cache).
    let (status, recorder) = get_json(addr, "/debug/jobs");
    assert_eq!(status, 200);
    let jobs = recorder
        .get("jobs")
        .and_then(Json::as_array)
        .expect("recorder jobs array");
    assert_eq!(jobs.len(), 2, "two recorded jobs");
    assert_eq!(jobs[1].get("id").and_then(Json::as_u64), Some(id));
    assert_eq!(
        jobs[1].get("request_id").and_then(Json::as_str),
        Some("corr-e2e-1")
    );
    assert_eq!(jobs[1].get("via").and_then(Json::as_str), Some("run"));
    assert_eq!(jobs[1].get("status").and_then(Json::as_str), Some("done"));
    assert!(
        jobs[1]
            .get("solve_ms")
            .and_then(Json::as_f64)
            .is_some_and(|ms| ms >= 0.0),
        "recorded summaries carry the phase split"
    );
    assert_eq!(jobs[0].get("via").and_then(Json::as_str), Some("cache"));
    assert!(recorder.get("slow").is_some(), "slow-job section present");

    server.shutdown();
    server.join();
}

#[test]
fn late_submission_after_cancelling_a_shared_run_starts_fresh() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    let mut body = String::from(
        "{\"kind\":\"opp\",\"use_bounds\":false,\"use_heuristics\":false,\
         \"time_limit_ms\":60000,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut body, &hard_instance_with(11));
    body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let victim = job_id(&reply);
    poll_job(addr, victim, |s| s == "running");

    // A second identical submission joins the running group...
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let joiner = job_id(&reply);
    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_deduplicated_total"),
        Some(1.0)
    );

    // ...then unsubscribes, and the last member cancels the run. The
    // group's token is fired while the solver is still unwinding.
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{joiner}"), "");
    assert_eq!(status, 200, "unsubscribe completes immediately");
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{victim}"), "");
    assert_eq!(status, 202, "running cancel is asynchronous");

    // An identical submission racing the unwinding worker must start a
    // fresh run — never observe `cancelled` for a run it never cancelled.
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let fresh = job_id(&reply);
    let doc = poll_job(addr, fresh, |s| s != "queued");
    assert_ne!(
        doc.get("status").and_then(Json::as_str),
        Some("cancelled"),
        "late submission must not inherit the cancelled verdict: {doc:?}"
    );
    let (_, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&exposition, "recopack_jobs_deduplicated_total"),
        Some(1.0),
        "the late submission started fresh instead of joining"
    );

    let (status, _) = request(addr, "DELETE", &format!("/jobs/{fresh}"), "");
    assert!(status == 200 || status == 202, "cleanup cancel: {status}");
    poll_job(addr, fresh, |s| s == "cancelled");
    poll_job(addr, victim, |s| s == "cancelled");
    server.shutdown();
    server.join();
}

#[test]
fn debug_profile_captures_folded_stacks_of_a_running_job() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();

    // Parameter validation and method handling answer without capturing.
    let (status, body) = request(addr, "GET", "/debug/profile?seconds=0", "");
    assert_eq!(status, 400, "{body}");
    let (status, body) = request(addr, "GET", "/debug/profile?seconds=99", "");
    assert_eq!(status, 400, "duration cap: {body}");
    let (status, body) = request(addr, "GET", "/debug/profile?hz=5000", "");
    assert_eq!(status, 400, "rate cap: {body}");
    let (status, body) = request(addr, "GET", "/debug/profile?depth=1", "");
    assert_eq!(status, 400, "unknown parameter: {body}");
    let (status, _) = request(addr, "POST", "/debug/profile?seconds=1", "");
    assert_eq!(status, 405);

    // Keep a worker busy so the capture has a live beacon to sample.
    let mut body = String::from(
        "{\"kind\":\"opp\",\"name\":\"profiled\",\"use_bounds\":false,\
         \"use_heuristics\":false,\"time_limit_ms\":60000,\"instance\":",
    );
    recopack_core::telemetry::push_json_str(&mut body, &hard_instance());
    body.push('}');
    let (status, reply) = request(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let id = job_id(&reply);
    poll_job(addr, id, |s| s == "running");

    let mut conn = TestConn::connect(addr);
    conn.send("GET", "/debug/profile?seconds=1&hz=200", "");
    let (status, head, folded) = conn.read_chunked();
    assert_eq!(status, 200, "{head}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain"),
        "folded stacks are plain text: {head}"
    );
    assert!(
        !folded.trim().is_empty(),
        "a 1s capture of a busy worker must sample something"
    );
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("folded line has a weight");
        assert!(stack.starts_with("worker:"), "stack frame root: {line}");
        assert!(stack.contains(';'), "stack has phase frames: {line}");
        weight.parse::<u64>().expect("weight is a count");
    }

    // The JSON summary rides the same machinery and reports the capture.
    conn.send("GET", "/debug/profile?seconds=1&format=json", "");
    let (status, _, summary) = conn.read_chunked();
    assert_eq!(status, 200);
    let doc = Json::parse(&summary).unwrap_or_else(|e| panic!("summary JSON: {e}: {summary}"));
    assert!(
        doc.get("samples").and_then(Json::as_u64).expect("samples") > 0,
        "{summary}"
    );
    assert_eq!(doc.get("hz").and_then(Json::as_u64), Some(97));

    let (status, _) = request(addr, "DELETE", &format!("/jobs/{id}"), "");
    assert_eq!(status, 202);
    poll_job(addr, id, |s| s == "cancelled");
    server.shutdown();
    server.join();
}

#[test]
fn build_info_uptime_and_version_are_exposed() {
    let server = bind_test_server(1, 2);
    let addr = server.local_addr();

    let (status, health) = get_json(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(
        health.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION")),
        "healthz echoes the crate version"
    );

    let (_, exposition) = request(addr, "GET", "/metrics", "");
    let build_info = exposition
        .lines()
        .find(|line| line.starts_with("recopack_build_info{"))
        .expect("build info series present");
    assert!(
        build_info.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION"))),
        "{build_info}"
    );
    assert!(build_info.contains("rustc=\""), "{build_info}");
    assert!(
        build_info.contains("profile=\"debug\"") || build_info.contains("profile=\"release\""),
        "{build_info}"
    );
    assert!(build_info.ends_with(" 1"), "info gauge is always 1");
    assert!(
        metric_value(&exposition, "recopack_uptime_seconds").is_some(),
        "uptime gauge present"
    );
    for phase in [
        "idle",
        "expand",
        "propagate",
        "bounds",
        "realize",
        "backtrack",
    ] {
        let series = format!("recopack_worker_phase_occupancy{{phase=\"{phase}\"}}");
        assert!(
            metric_value(&exposition, &series).is_some(),
            "missing {series}"
        );
    }
    assert!(
        metric_value(&exposition, "recopack_workers_stalled").is_some(),
        "stall gauge present"
    );

    server.shutdown();
    server.join();
}

/// Chips far larger than any module must cost what small ones do: neither
/// the heuristics' free-space manager nor the DFF bound may allocate by
/// chip area or side. Each job must finish with a placement that verifies,
/// and the server must stay healthy.
#[test]
fn huge_chips_solve_and_leave_the_server_healthy() {
    let server = bind_test_server(1, 4);
    let addr = server.local_addr();
    for text in [
        "chip 200000 200000\nhorizon 4\ntask a 2 2 2\ntask b 2 2 2\narc a b\n",
        "chip 1000000000 1000000000\nhorizon 4\n\
         task a 2 2 2\ntask b 3 1 2\ntask c 1 5 1\narc a b\n",
    ] {
        let mut body = String::from("{\"kind\":\"opp\",\"instance\":");
        recopack_core::telemetry::push_json_str(&mut body, text);
        body.push('}');
        let (status, reply) = request(addr, "POST", "/jobs", &body);
        assert_eq!(status, 202, "submission accepted: {reply}");
        let job = poll_job(addr, job_id(&reply), |s| s != "queued" && s != "running");
        assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(job.get("outcome").and_then(Json::as_str), Some("feasible"));
        let instance = format::parse_instance(text).expect("instance parses");
        let placement = job
            .get("placement")
            .and_then(Json::as_str)
            .expect("feasible job carries a placement");
        let placement = format::parse_placement(placement, &instance).expect("placement parses");
        assert_eq!(placement.verify(&instance), Ok(()));

        let (status, health) = get_json(addr, "/healthz");
        assert_eq!(status, 200, "server stays healthy after a huge chip");
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    }
    server.shutdown();
    server.join();
}

/// Seed of the closed-loop mix below.
const MIX_SEED: u64 = 7;

/// A 5-task random OPP instance in the text format.
fn mix_instance(rng: &mut StdRng) -> String {
    let config = GeneratorConfig {
        task_count: 5,
        max_side: 3,
        max_duration: 3,
        arc_percent: 30,
    };
    format::format_instance(&random_instance(&config, rng))
}

/// A never-repeated instance, unique per (client, op).
fn fresh_mix_instance(client: usize, op: usize) -> String {
    let salt = (client as u64) << 32 | op as u64;
    mix_instance(&mut StdRng::seed_from_u64(
        MIX_SEED ^ 0xfeed_f00d ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    ))
}

/// A `POST /jobs` body, or one item of a batch.
fn opp_body(name: &str, instance: &str) -> String {
    let mut body = format!("{{\"kind\":\"opp\",\"name\":\"{name}\",\"instance\":");
    recopack_core::telemetry::push_json_str(&mut body, instance);
    body.push('}');
    body
}

/// One client of the mix: a single keep-alive connection that times every
/// round trip and drives every job it submits to `done`. A closed stream,
/// a stalled server or any reply but success panics the client.
struct MixClient {
    conn: TestConn,
    latencies_ms: Vec<f64>,
    jobs: u64,
}

impl MixClient {
    fn round_trip(&mut self, method: &str, path: &str, body: &str) -> (u16, Json) {
        let start = Instant::now();
        self.conn.send(method, path, body);
        let (status, _, reply) = self.conn.read_framed();
        self.latencies_ms
            .push(start.elapsed().as_secs_f64() * 1000.0);
        let doc = Json::parse(&reply).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}"));
        (status, doc)
    }

    /// Counts one job whose submission reply (or batch entry) is `entry`,
    /// and polls it until it is done; a cache hit is born done.
    fn finish(&mut self, entry: &Json) {
        self.jobs += 1;
        let id = entry.get("id").and_then(Json::as_u64);
        let id = id.unwrap_or_else(|| panic!("job refused: {entry:?}"));
        let status = |doc: &Json| doc.get("status").and_then(Json::as_str).map(str::to_string);
        let deadline = Instant::now() + Duration::from_secs(60);
        let (mut doc, mut nap) = (entry.clone(), Duration::ZERO);
        while matches!(status(&doc).as_deref(), Some("queued" | "running")) {
            assert!(Instant::now() < deadline, "job {id} never finished");
            std::thread::sleep(nap);
            nap = Duration::from_millis(1);
            let (code, reply) = self.round_trip("GET", &format!("/jobs/{id}"), "");
            assert_eq!(code, 200, "job {id}: {reply:?}");
            doc = reply;
        }
        assert_eq!(status(&doc).as_deref(), Some("done"), "job {id}: {doc:?}");
    }

    fn submit(&mut self, name: &str, instance: &str) {
        let (status, doc) = self.round_trip("POST", "/jobs", &opp_body(name, instance));
        assert_eq!(status, 202, "{doc:?}");
        self.finish(&doc);
    }

    fn submit_batch(&mut self, items: &[(String, &str)]) {
        let jobs: Vec<String> = items.iter().map(|(n, i)| opp_body(n, i)).collect();
        let body = format!("{{\"jobs\":[{}]}}", jobs.join(","));
        let (status, doc) = self.round_trip("POST", "/jobs:batch", &body);
        assert_eq!(status, 200, "{doc:?}");
        let entries = doc
            .get("jobs")
            .and_then(Json::as_array)
            .expect("jobs array");
        assert_eq!(entries.len(), items.len(), "{doc:?}");
        for entry in entries {
            self.finish(entry);
        }
    }
}

/// The service's closed-loop smoke gate. Four keep-alive clients run 12
/// seeded operations each: 50% resubmissions from a shared 6-instance
/// pool (so they collide across clients as cache hits or in-flight
/// joins), 15% batches of two pool items and one fresh item, and 35%
/// fresh instances. Gates: no failed request or job, no reconnect, a
/// cache hit rate of at least 0.35, and a request p99 within 2 s.
#[test]
fn seeded_keep_alive_mix_meets_the_cache_and_latency_gates() {
    const CLIENTS: usize = 4;
    const OPS: usize = 12;
    // The default queue depth: each client has at most one batch of three
    // jobs outstanding, so no submission meets a full queue.
    let server = bind_test_server(2, 16);
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(MIX_SEED);
    let pool: Vec<String> = (0..6).map(|_| mix_instance(&mut rng)).collect();

    let clients: Vec<MixClient> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let pool = &pool;
                scope.spawn(move || {
                    let conn = TestConn::connect(addr);
                    conn.stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .expect("socket timeout");
                    let mut mix = MixClient {
                        conn,
                        latencies_ms: Vec::new(),
                        jobs: 0,
                    };
                    let mut rng = StdRng::seed_from_u64(MIX_SEED + 1 + client as u64);
                    for op in 0..OPS {
                        let roll = rng.gen_range(0..100u32);
                        if roll < 50 {
                            let slot = rng.gen_range(0..pool.len());
                            mix.submit(&format!("pool-{slot}"), &pool[slot]);
                        } else if roll < 65 {
                            let a = rng.gen_range(0..pool.len());
                            let b = rng.gen_range(0..pool.len());
                            let fresh = fresh_mix_instance(client, op);
                            mix.submit_batch(&[
                                (format!("pool-{a}"), pool[a].as_str()),
                                (format!("pool-{b}"), pool[b].as_str()),
                                (format!("c{client}-op{op}-batch"), fresh.as_str()),
                            ]);
                        } else {
                            let fresh = fresh_mix_instance(client, op);
                            mix.submit(&format!("c{client}-op{op}"), &fresh);
                        }
                    }
                    mix
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client met a failure"))
            .collect()
    });

    let (status, exposition) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metric = |series: &str| metric_value(&exposition, series).unwrap_or(0.0);
    // One connection per client plus this scrape's: nobody reconnected.
    assert_eq!(
        metric("recopack_http_connections_total"),
        (CLIENTS + 1) as f64
    );
    let jobs: u64 = clients.iter().map(|c| c.jobs).sum();
    assert_eq!(
        metric("recopack_jobs_completed_total{kind=\"opp\"}"),
        jobs as f64
    );
    let (hits, misses) = (
        metric("recopack_cache_hits_total"),
        metric("recopack_cache_misses_total"),
    );
    let hit_rate = hits / (hits + misses);
    assert!(hit_rate >= 0.35, "cache hit rate {hit_rate:.3}");
    let mut latencies_ms: Vec<f64> = clients.into_iter().flat_map(|c| c.latencies_ms).collect();
    latencies_ms.sort_by(f64::total_cmp);
    let p99 = latencies_ms[((latencies_ms.len() - 1) as f64 * 0.99).round() as usize];
    assert!(p99 <= 2000.0, "request p99 {p99:.3} ms");

    server.shutdown();
    server.join();
}
