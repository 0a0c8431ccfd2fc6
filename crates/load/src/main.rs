//! `recopack-load`: drive a `recopack serve` instance with concurrent
//! keep-alive clients and report latency percentiles plus cache
//! effectiveness.
//!
//! ```text
//! recopack-load [--smoke] [--addr HOST:PORT] [--clients N] [--ops N]
//!               [--seed N] [--workers N] [--label NAME] [--out PATH]
//!               [--check] [--min-hit-rate F] [--max-p99-ms F]
//! ```
//!
//! * `--smoke` — small CI preset (4 clients × 12 ops) unless `--clients`
//!   / `--ops` override it;
//! * `--addr` — target an external server instead of booting one
//!   in-process on an ephemeral port;
//! * `--out PATH` — report path (default `LOAD_PR7.json`);
//! * `--check` — gate on zero failures, minimum cache hit rate, a p99
//!   bound, and zero keep-alive reconnects; exits nonzero on failure.

use std::process::ExitCode;

use recopack_load::{check_report, run, LoadOptions, Thresholds};

struct Args {
    options: LoadOptions,
    out: String,
    check: bool,
    thresholds: Thresholds,
}

fn parse_args() -> Result<Args, String> {
    let mut options = LoadOptions::default();
    let mut out = "LOAD_PR7.json".to_string();
    let mut check = false;
    let mut thresholds = Thresholds::default();
    let mut explicit_clients = None;
    let mut explicit_ops = None;

    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or(format!("{flag} requires a value"));
        match a.as_str() {
            "--smoke" => options.smoke = true,
            "--addr" => options.addr = Some(value("--addr")?),
            "--clients" => {
                explicit_clients = Some(parse_positive("--clients", &value("--clients")?)?);
            }
            "--ops" => explicit_ops = Some(parse_positive("--ops", &value("--ops")?)?),
            "--seed" => {
                let v = value("--seed")?;
                options.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects a number, got {v:?}"))?;
            }
            "--workers" => options.workers = parse_positive("--workers", &value("--workers")?)?,
            "--label" => options.label = value("--label")?,
            "--out" => out = value("--out")?,
            "--check" => check = true,
            "--min-hit-rate" => {
                let v = value("--min-hit-rate")?;
                thresholds.min_hit_rate = v
                    .parse()
                    .map_err(|_| format!("--min-hit-rate expects a number, got {v:?}"))?;
            }
            "--max-p99-ms" => {
                let v = value("--max-p99-ms")?;
                thresholds.max_p99_ms = v
                    .parse()
                    .map_err(|_| format!("--max-p99-ms expects a number, got {v:?}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: recopack-load [--smoke] [--addr HOST:PORT] [--clients N] [--ops N] \
                     [--seed N] [--workers N] [--label NAME] [--out PATH] [--check] \
                     [--min-hit-rate F] [--max-p99-ms F]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if options.smoke {
        options.clients = 4;
        options.ops_per_client = 12;
    }
    if let Some(clients) = explicit_clients {
        options.clients = clients;
    }
    if let Some(ops) = explicit_ops {
        options.ops_per_client = ops;
    }
    Ok(Args {
        options,
        out,
        check,
        thresholds,
    })
}

fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(0) | Err(_) => Err(format!("{flag} expects a positive number, got {value:?}")),
        Ok(n) => Ok(n),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args.options) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("load run failed: {message}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{} clients x {} ops against {}",
        report.clients,
        args.options.ops_per_client,
        args.options
            .addr
            .as_deref()
            .unwrap_or("in-process server (ephemeral port)"),
    );
    println!(
        "requests {:>8}   failures {:>4}   reconnects {:>4}   wall {:>8.3} s   {:>10.1} req/s",
        report.requests, report.failures, report.reconnects, report.wall_s, report.throughput_rps
    );
    println!(
        "request latency  p50 {:>8.3} ms   p90 {:>8.3} ms   p99 {:>8.3} ms   max {:>8.3} ms",
        report.request_latency.p50_ms,
        report.request_latency.p90_ms,
        report.request_latency.p99_ms,
        report.request_latency.max_ms
    );
    println!(
        "job latency      p50 {:>8.3} ms   p90 {:>8.3} ms   p99 {:>8.3} ms   max {:>8.3} ms",
        report.job_latency.p50_ms,
        report.job_latency.p90_ms,
        report.job_latency.p99_ms,
        report.job_latency.max_ms
    );
    println!(
        "server phases    queue-wait mean {:>6.3} ms   solve mean {:>6.3} ms",
        report.queue_wait_mean_ms, report.solve_mean_ms
    );
    if report.smoke {
        println!(
            "event stream     {} NDJSON lines from the traced smoke job (end record included)",
            report.trace_lines
        );
    }
    println!(
        "jobs {} submitted ({} via batch), {} completed; cache {} hits / {} misses \
         (rate {:.3}), {} dedup joins",
        report.jobs_submitted,
        report.batch_items,
        report.jobs_completed,
        report.cache_hits,
        report.cache_misses,
        report.hit_rate(),
        report.dedup_joins
    );

    if let Err(e) = std::fs::write(&args.out, report.to_json()) {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("report written to {}", args.out);

    if !args.check {
        return ExitCode::SUCCESS;
    }
    let (lines, ok) = check_report(&report, &args.thresholds);
    println!("\nload gates:");
    for line in &lines {
        println!("  {line}");
    }
    if ok {
        println!("gate passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("load gate failed");
        ExitCode::FAILURE
    }
}
