//! Implementation of the `recopack` command-line tool.
//!
//! Subcommands (instances use the text format of
//! [`recopack_model::format`]):
//!
//! * `solve <file>` — decide feasibility, print the placement and timeline;
//! * `bmp <file>` — minimize the square chip for the file's horizon;
//! * `spp <file>` — minimize the execution time on the file's chip;
//! * `pareto <file>` — enumerate Pareto-optimal (chip, time) points;
//! * `check <file> <placement>` — verify a placement file geometrically;
//! * `render <file> <placement>` — print a Gantt chart (or SVG with `--svg`);
//! * `sample <de|codec|pair>` — print a ready-made instance file;
//! * `trace <events.ndjson>` — export a `--trace` journal as a Chrome
//!   trace, folded flamegraph stacks, or a terminal summary;
//! * `serve` — run the long-lived solver service (HTTP job queue, health,
//!   Prometheus metrics) until SIGTERM/ctrl-c;
//! * `help` — usage.
//!
//! All subcommands accept `--no-precedence` (drop the partial order, the
//! paper's Figure 7(b) mode), `--floorplans` (print the chip occupancy
//! between reconfiguration events), and `--emit-placement` (print solutions
//! as `place` lines consumable by `check`/`render`). The solver subcommands
//! (`solve`, `bmp`, `spp`, `pareto`) additionally accept
//! `--stats-json <path>` to write a versioned [`SolveReport`] JSON document,
//! `--trace <path>` to stream the search event journal as NDJSON,
//! `--progress[=<ms>]` for a live stderr status line, and `--profile` to
//! collect per-phase wall times into the report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod progress;
mod trace;

use std::fmt::Write as _;
use std::io::IsTerminal as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use recopack_core::{
    pareto_front_with_stats, per_second, Bmp, FileJournal, Opp, Sampler, SolveOutcome, SolveReport,
    SolverConfig, SolverStats, Spp, Telemetry, SAMPLER_DEFAULT_HZ,
};
use recopack_model::{benchmarks, format, render, Chip, Instance, Placement};

/// A CLI failure with a message and a suggested exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Suggested process exit code.
    pub exit_code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            exit_code: 2,
        }
    }

    fn runtime(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            exit_code: 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// Usage text printed by `help` and on argument errors.
pub const USAGE: &str = "\
recopack — optimal FPGA module placement with temporal precedence constraints

USAGE:
    recopack <command> [options]

COMMANDS:
    solve  <file>            decide feasibility of the instance file
    bmp    <file>            minimize the square chip for the file's horizon
    spp    <file>            minimize the execution time on the file's chip
    pareto <file>            enumerate Pareto-optimal (chip side, time) points
    check  <file> <place>    verify a placement file against the instance
    render <file> <place>    print a Gantt chart of a placement file
    sample <de|codec|pair>   print a ready-made instance file
    trace  <events.ndjson>   export a recorded search trace (see below)
    serve                    run the solver service until SIGTERM/ctrl-c
    help                     show this message

OPTIONS:
    --no-precedence          drop all precedence arcs before solving
    --no-bounds              skip the lower-bound refutation stage
    --no-heuristics          skip the heuristic placement stage (useful with
                             --trace/--progress to observe the exact search)
    --floorplans             also print chip occupancy between events
    --emit-placement         print solutions as `place` lines
    --svg                    render as an SVG document instead of a Gantt
    --threads <n|auto>       worker threads for the branch-and-bound
                             (default 1 = sequential, auto = all hardware
                             threads; the answer is thread-count invariant)
    --stats-json <path>      write a versioned JSON telemetry report (wall
                             time, node counts, per-rule conflicts) for
                             solve/bmp/spp/pareto
    --trace <path>           stream every search event to <path> as NDJSON
                             (read back with `recopack trace`)
    --progress[=<ms>]        live stderr status line while solving, redrawn
                             every <ms> (default 200; requires a TTY unless
                             an explicit interval forces it)
    --profile                collect per-phase wall times (propagation,
                             bounds, realization, per-rule refutations) into
                             the stats report; timings are informational and
                             vary with the thread count
    --sample-profile[=<hz>]  attach the sampling profiler to the solve: a
                             detached thread reads the always-on worker
                             activity beacons at <hz> (default 97) and
                             writes folded stacks plus a top-K summary;
                             node counts are unaffected
    --sample-out <path>      folded-stack output path for --sample-profile
                             (default sample.folded; flamegraph-compatible,
                             like `recopack trace --folded`)

SERVICE (for `recopack serve`):
    --addr <host:port>       listen address (default 127.0.0.1:7878; port 0
                             binds an ephemeral port)
    --queue-depth <n>        bounded job-queue capacity; submissions beyond
                             it get 503 (default 16)
    --max-connections <n>    concurrent client connection cap; further
                             connects get an immediate 503 (default 64)
                             (`--threads` sets the solver worker count)
    --slow-job-ms <n>        flight-recorder slow-job threshold: jobs whose
                             solve wall time exceeds it are pinned in
                             GET /debug/jobs and logged as job_slow
                             (default 1000; 0 disables the slow log)

TRACE EXPORT (for `recopack trace <events.ndjson>`):
    --chrome <path>          write Chrome trace-event JSON (Perfetto,
                             chrome://tracing); one track per subtree
    --folded <path>          write folded stacks for flamegraph tooling
    --weight <nodes|t_ns>    folded-stack weighting (default nodes)
    --summary                print totals, prune shares, depth profile
                             (default when no export flag is given)
    --follow                 tail a journal that is still being written:
                             poll for appended lines until its end record
                             (or --idle-timeout-ms of silence), then export
                             as usual
    --idle-timeout-ms <n>    how long --follow tolerates a silent journal
                             before giving up (default 2000; 0 = wait
                             forever for the end record)
";

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Options {
    no_precedence: bool,
    no_bounds: bool,
    no_heuristics: bool,
    floorplans: bool,
    emit_placement: bool,
    svg: bool,
    threads: usize,
    stats_json: Option<String>,
    trace: Option<String>,
    /// `None` = no progress; `Some(None)` = on with the default interval
    /// (TTY-gated); `Some(Some(ms))` = explicit interval, forces output.
    progress: Option<Option<u64>>,
    profile: bool,
    /// `None` = no sampling; `Some(None)` = on at the default rate;
    /// `Some(Some(hz))` = explicit sampling rate.
    sample_profile: Option<Option<u64>>,
    sample_out: String,
    chrome: Option<String>,
    folded: Option<String>,
    summary: bool,
    follow: bool,
    idle_timeout_ms: u64,
    weight: trace::FoldedWeight,
    addr: Option<String>,
    queue_depth: usize,
    max_connections: usize,
    slow_job_ms: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            no_precedence: false,
            no_bounds: false,
            no_heuristics: false,
            floorplans: false,
            emit_placement: false,
            svg: false,
            threads: 1,
            stats_json: None,
            trace: None,
            progress: None,
            profile: false,
            sample_profile: None,
            sample_out: "sample.folded".to_string(),
            chrome: None,
            folded: None,
            summary: false,
            follow: false,
            idle_timeout_ms: trace::FOLLOW_IDLE.as_millis() as u64,
            weight: trace::FoldedWeight::default(),
            addr: None,
            queue_depth: 16,
            max_connections: 64,
            slow_job_ms: 1000,
        }
    }
}

impl Options {
    fn solver_config(&self) -> SolverConfig {
        SolverConfig {
            threads: self.threads,
            profile: self.profile,
            use_bounds: !self.no_bounds,
            use_heuristics: !self.no_heuristics,
            ..SolverConfig::default()
        }
    }
}

/// Resolves a value-taking flag: `--flag=value` or `--flag value`.
fn take_value<'a>(
    flag: &str,
    inline: Option<&'a str>,
    iter: &mut std::slice::Iter<'a, String>,
) -> Result<&'a str, CliError> {
    match inline {
        Some(v) => Ok(v),
        None => iter
            .next()
            .map(String::as_str)
            .ok_or_else(|| CliError::usage(format!("{flag} requires a value"))),
    }
}

/// Rejects an inline value on a flag that does not take one.
fn no_value(flag: &str, inline: Option<&str>) -> Result<(), CliError> {
    match inline {
        Some(v) => Err(CliError::usage(format!(
            "{flag} does not take a value (got {v:?})"
        ))),
        None => Ok(()),
    }
}

fn split_args(args: &[String]) -> Result<(Vec<&str>, Options), CliError> {
    let mut positional = Vec::new();
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if !a.starts_with('-') || a == "-" {
            positional.push(a.as_str());
            continue;
        }
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (a.as_str(), None),
        };
        match flag {
            "--no-precedence" => {
                no_value(flag, inline)?;
                options.no_precedence = true;
            }
            "--no-bounds" => {
                no_value(flag, inline)?;
                options.no_bounds = true;
            }
            "--no-heuristics" => {
                no_value(flag, inline)?;
                options.no_heuristics = true;
            }
            "--floorplans" => {
                no_value(flag, inline)?;
                options.floorplans = true;
            }
            "--emit-placement" => {
                no_value(flag, inline)?;
                options.emit_placement = true;
            }
            "--svg" => {
                no_value(flag, inline)?;
                options.svg = true;
            }
            "--summary" => {
                no_value(flag, inline)?;
                options.summary = true;
            }
            "--follow" => {
                no_value(flag, inline)?;
                options.follow = true;
            }
            "--profile" => {
                no_value(flag, inline)?;
                options.profile = true;
            }
            "--threads" => {
                let value = take_value(flag, inline, &mut iter)?;
                options.threads = match value {
                    "auto" => 0,
                    "0" => {
                        return Err(CliError::usage(
                            "--threads 0 is not a thread count; use --threads auto \
                             for all hardware threads",
                        ));
                    }
                    n => n.parse().map_err(|_| {
                        CliError::usage(format!("--threads expects a number or auto, got {n:?}"))
                    })?,
                };
            }
            "--stats-json" => {
                options.stats_json = Some(take_value(flag, inline, &mut iter)?.to_string());
            }
            "--trace" => {
                options.trace = Some(take_value(flag, inline, &mut iter)?.to_string());
            }
            "--chrome" => {
                options.chrome = Some(take_value(flag, inline, &mut iter)?.to_string());
            }
            "--folded" => {
                options.folded = Some(take_value(flag, inline, &mut iter)?.to_string());
            }
            "--addr" => {
                options.addr = Some(take_value(flag, inline, &mut iter)?.to_string());
            }
            "--queue-depth" => {
                let value = take_value(flag, inline, &mut iter)?;
                options.queue_depth = match value.parse() {
                    Ok(0) | Err(_) => {
                        return Err(CliError::usage(format!(
                            "--queue-depth expects a positive number, got {value:?}"
                        )));
                    }
                    Ok(n) => n,
                };
            }
            "--max-connections" => {
                let value = take_value(flag, inline, &mut iter)?;
                options.max_connections = match value.parse() {
                    Ok(0) | Err(_) => {
                        return Err(CliError::usage(format!(
                            "--max-connections expects a positive number, got {value:?}"
                        )));
                    }
                    Ok(n) => n,
                };
            }
            "--slow-job-ms" => {
                let value = take_value(flag, inline, &mut iter)?;
                options.slow_job_ms = value.parse().map_err(|_| {
                    CliError::usage(format!(
                        "--slow-job-ms expects milliseconds (0 disables), got {value:?}"
                    ))
                })?;
            }
            "--weight" => {
                options.weight = match take_value(flag, inline, &mut iter)? {
                    "nodes" => trace::FoldedWeight::Nodes,
                    "t_ns" => trace::FoldedWeight::TimeNs,
                    other => {
                        return Err(CliError::usage(format!(
                            "--weight expects nodes or t_ns, got {other:?}"
                        )));
                    }
                };
            }
            // Only the inline form takes a rate, so a following operand is
            // never swallowed: `--sample-profile file.rpk` works.
            "--sample-profile" => {
                options.sample_profile = Some(match inline {
                    None => None,
                    Some(hz) => {
                        let parsed: u64 = hz.parse().map_err(|_| {
                            CliError::usage(format!(
                                "--sample-profile expects a sampling rate in Hz, got {hz:?}"
                            ))
                        })?;
                        if parsed == 0 {
                            return Err(CliError::usage(
                                "--sample-profile expects a positive Hz (omit the value \
                                 for the default 97)",
                            ));
                        }
                        Some(parsed)
                    }
                });
            }
            "--sample-out" => {
                options.sample_out = take_value(flag, inline, &mut iter)?.to_string();
            }
            "--idle-timeout-ms" => {
                let value = take_value(flag, inline, &mut iter)?;
                options.idle_timeout_ms = value.parse().map_err(|_| {
                    CliError::usage(format!(
                        "--idle-timeout-ms expects milliseconds (0 = wait forever), \
                         got {value:?}"
                    ))
                })?;
            }
            // Only the inline form takes an interval, so a following
            // operand is never swallowed: `--progress file.rpk` works.
            "--progress" => {
                options.progress = Some(match inline {
                    None => None,
                    Some(ms) => Some(ms.parse().map_err(|_| {
                        CliError::usage(format!("--progress expects milliseconds, got {ms:?}"))
                    })?),
                });
            }
            _ => {
                return Err(CliError::usage(format!("unknown option {a:?}\n\n{USAGE}")));
            }
        }
    }
    Ok((positional, options))
}

fn load_instance(path: &str, options: &Options) -> Result<Instance, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let mut instance =
        format::parse_instance(&text).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    instance = if options.no_precedence {
        instance.without_precedence()
    } else {
        instance.with_transitive_closure()
    };
    Ok(instance)
}

/// Everything a `--stats-json` report needs besides the options and stats:
/// what ran, on what, how it went, and what the trace session observed.
struct ReportMeta<'a> {
    command: &'a str,
    instance: &'a str,
    outcome: String,
    decisions: u32,
    started: Instant,
    journal_dropped: Option<u64>,
}

/// Writes the `--stats-json` report, if one was requested.
fn write_report(
    options: &Options,
    meta: ReportMeta<'_>,
    stats: &SolverStats,
) -> Result<(), CliError> {
    let Some(path) = &options.stats_json else {
        return Ok(());
    };
    let wall_ms = meta.started.elapsed().as_secs_f64() * 1000.0;
    let per_sec = |count: u64| per_second(count, wall_ms);
    let report = SolveReport {
        command: meta.command.to_string(),
        instance: meta.instance.to_string(),
        outcome: meta.outcome,
        threads: options.threads,
        decisions: meta.decisions,
        wall_ms,
        nodes_per_sec: per_sec(stats.nodes),
        propagation_events_per_sec: per_sec(stats.propagation_events),
        stats: stats.clone(),
        journal_dropped: meta.journal_dropped,
    };
    let mut text = report.to_json();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))
}

/// The per-solve observability session: the `--trace` NDJSON journal,
/// the live `--progress` reporter, which reads the solve handle of the
/// configuration it was started for, and the `--sample-profile` sampler.
/// [`finish`] tears them down and returns the journal's dropped count for
/// the [`SolveReport`].
///
/// [`finish`]: TraceSession::finish
struct TraceSession {
    journal: Option<Arc<FileJournal>>,
    reporter: Option<progress::Reporter>,
    trace_path: Option<String>,
    sampling: SampleSession,
}

impl TraceSession {
    /// Opens the journal and starts the reporter and the sampler for a
    /// solve under `config`, installing the journal as its telemetry sink.
    fn start(
        options: &Options,
        instance: &Instance,
        config: &mut SolverConfig,
    ) -> Result<Self, CliError> {
        let journal = match &options.trace {
            Some(path) => Some(Arc::new(
                FileJournal::create(std::path::Path::new(path)).map_err(|e| {
                    CliError::runtime(format!("cannot create trace file {path}: {e}"))
                })?,
            )),
            None => None,
        };
        if let Some(journal) = &journal {
            config.telemetry = Telemetry::to(journal.clone());
        }
        // A bare `--progress` is pointless when stderr is piped; an
        // explicit interval is taken as "I know what I'm doing".
        let reporter = match options.progress {
            Some(interval) if interval.is_some() || std::io::stderr().is_terminal() => {
                let n = instance.task_count() as u64;
                let total_slots = 3 * n * n.saturating_sub(1) / 2;
                Some(progress::Reporter::start(
                    config.handle.clone(),
                    Duration::from_millis(interval.unwrap_or(200).max(1)),
                    total_slots,
                ))
            }
            _ => None,
        };
        Ok(Self {
            journal,
            reporter,
            trace_path: options.trace.clone(),
            sampling: SampleSession::start(options),
        })
    }

    /// Stops the reporter and the sampler (its summary goes to `out`),
    /// flushes the journal, and returns the journal's dropped count for
    /// the stats report.
    fn finish(mut self, out: &mut String) -> Result<Option<u64>, CliError> {
        if let Some(reporter) = self.reporter.take() {
            reporter.finish();
        }
        self.sampling.finish(out)?;
        match &self.journal {
            Some(journal) => {
                journal.flush().map_err(|e| {
                    let path = self.trace_path.as_deref().unwrap_or("<trace>");
                    CliError::runtime(format!("cannot write trace file {path}: {e}"))
                })?;
                Ok(Some(journal.dropped()))
            }
            None => Ok(None),
        }
    }
}

/// The per-solve sampling-profiler session (`--sample-profile`): starts the
/// detached beacon sampler before the solve; [`finish`](Self::finish) stops
/// it, writes the folded stacks, and appends a top-K summary to the output.
struct SampleSession {
    sampler: Option<Sampler>,
    out_path: String,
}

impl SampleSession {
    fn start(options: &Options) -> Self {
        let sampler = options
            .sample_profile
            .map(|hz| Sampler::start(hz.unwrap_or(SAMPLER_DEFAULT_HZ)));
        Self {
            sampler,
            out_path: options.sample_out.clone(),
        }
    }

    fn finish(&mut self, out: &mut String) -> Result<(), CliError> {
        let Some(sampler) = self.sampler.take() else {
            return Ok(());
        };
        let profile = sampler.stop();
        std::fs::write(&self.out_path, profile.to_folded())
            .map_err(|e| CliError::runtime(format!("cannot write {}: {e}", self.out_path)))?;
        let _ = writeln!(
            out,
            "sampling profile: {} samples at {} Hz, {} stacks -> {}",
            profile.samples,
            profile.hz,
            profile.stacks.len(),
            self.out_path
        );
        for (stack, count) in profile.top(5) {
            let percent = if profile.worker_samples > 0 {
                count as f64 * 100.0 / profile.worker_samples as f64
            } else {
                0.0
            };
            let _ = writeln!(out, "  {percent:5.1}%  {stack}");
        }
        if !profile.stalled_workers.is_empty() {
            let _ = writeln!(
                out,
                "  stalled workers at stop: {:?}",
                profile.stalled_workers
            );
        }
        Ok(())
    }
}

fn describe_placement(
    out: &mut String,
    instance: &Instance,
    placement: &Placement,
    options: &Options,
) {
    let _ = writeln!(out, "makespan: {} cycles", placement.makespan());
    let _ = writeln!(out, "\n{}", render::gantt(placement, instance));
    if options.emit_placement {
        let _ = writeln!(out, "{}", format::format_placement(placement, instance));
    }
    if options.floorplans {
        let events = render::events(placement);
        for w in events.windows(2) {
            if let Some(plan) = render::floorplan(placement, instance, w[0], w[1]) {
                let _ = writeln!(out, "cycles [{}, {}):\n{}", w[0], w[1], plan);
            }
        }
    }
}

/// Runs the CLI on `args` (without the program name); returns the text to
/// print on stdout.
///
/// # Errors
///
/// [`CliError`] with a message and exit code on bad usage, unreadable or
/// malformed files, and infeasible optimization goals.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (positional, options) = split_args(args)?;
    let mut out = String::new();
    match positional.as_slice() {
        [] | ["help"] => out.push_str(USAGE),
        ["solve", path] => {
            let instance = load_instance(path, &options)?;
            let mut config = options.solver_config();
            let session = TraceSession::start(&options, &instance, &mut config)?;
            let started = Instant::now();
            let (outcome, stats) = Opp::new(&instance).with_config(config).solve_with_stats();
            let journal_dropped = session.finish(&mut out)?;
            let label = match &outcome {
                SolveOutcome::Feasible(_) => "feasible".to_string(),
                SolveOutcome::Infeasible(_) => "infeasible".to_string(),
                SolveOutcome::ResourceLimit(limit) => format!("{limit} reached"),
            };
            write_report(
                &options,
                ReportMeta {
                    command: "solve",
                    instance: path,
                    outcome: label,
                    decisions: 1,
                    started,
                    journal_dropped,
                },
                &stats,
            )?;
            match outcome {
                SolveOutcome::Feasible(p) => {
                    p.verify(&instance)
                        .map_err(|e| CliError::runtime(format!("certificate invalid: {e}")))?;
                    let _ = writeln!(
                        out,
                        "feasible on {} within {} cycles",
                        instance.chip(),
                        instance.horizon()
                    );
                    describe_placement(&mut out, &instance, &p, &options);
                }
                SolveOutcome::Infeasible(proof) => {
                    let _ = writeln!(out, "infeasible: {proof}");
                }
                SolveOutcome::ResourceLimit(limit) => {
                    return Err(CliError::runtime(format!("{limit} reached")));
                }
            }
        }
        ["bmp", path] => {
            let instance = load_instance(path, &options)?;
            let mut config = options.solver_config();
            let session = TraceSession::start(&options, &instance, &mut config)?;
            let started = Instant::now();
            let result = Bmp::new(&instance).with_config(config).solve();
            let journal_dropped = session.finish(&mut out)?;
            let result = result.ok_or_else(|| {
                CliError::runtime("no chip admits the deadline (critical path too long)")
            })?;
            write_report(
                &options,
                ReportMeta {
                    command: "bmp",
                    instance: path,
                    outcome: format!("side {}", result.side),
                    decisions: result.decisions,
                    started,
                    journal_dropped,
                },
                &result.stats,
            )?;
            let _ = writeln!(
                out,
                "minimal square chip for horizon {}: {}x{} ({} exact decisions)",
                instance.horizon(),
                result.side,
                result.side,
                result.decisions
            );
            let target = instance.clone().with_chip(Chip::square(result.side));
            describe_placement(&mut out, &target, &result.placement, &options);
        }
        ["spp", path] => {
            let instance = load_instance(path, &options)?;
            let mut config = options.solver_config();
            let session = TraceSession::start(&options, &instance, &mut config)?;
            let started = Instant::now();
            let result = Spp::new(&instance).with_config(config).solve();
            let journal_dropped = session.finish(&mut out)?;
            // The CLI sets no budget: without an answer, either a module is
            // too large for the chip or no makespan within u64 fits.
            let result = result.ok_or_else(|| {
                let chip = instance.chip();
                let too_large = instance
                    .tasks()
                    .iter()
                    .any(|t| t.width() > chip.width() || t.height() > chip.height());
                CliError::runtime(if too_large {
                    "some module does not fit the chip spatially"
                } else {
                    "no makespan within u64 admits a packing"
                })
            })?;
            write_report(
                &options,
                ReportMeta {
                    command: "spp",
                    instance: path,
                    outcome: format!("makespan {}", result.makespan),
                    decisions: result.decisions,
                    started,
                    journal_dropped,
                },
                &result.stats,
            )?;
            let _ = writeln!(
                out,
                "minimal execution time on {}: {} cycles ({} exact decisions)",
                instance.chip(),
                result.makespan,
                result.decisions
            );
            let target = instance.clone().with_horizon(result.makespan);
            describe_placement(&mut out, &target, &result.placement, &options);
        }
        ["pareto", path] => {
            let instance = load_instance(path, &options)?;
            let mut config = options.solver_config();
            let session = TraceSession::start(&options, &instance, &mut config)?;
            let started = Instant::now();
            let result = pareto_front_with_stats(&instance, &config);
            let journal_dropped = session.finish(&mut out)?;
            let (front, stats, decisions) =
                result.ok_or_else(|| CliError::runtime("resource limit reached"))?;
            write_report(
                &options,
                ReportMeta {
                    command: "pareto",
                    instance: path,
                    outcome: format!("{} pareto points", front.len()),
                    decisions,
                    started,
                    journal_dropped,
                },
                &stats,
            )?;
            let _ = writeln!(out, "{:>6} | {:>6}", "chip", "time");
            for p in &front {
                let _ = writeln!(out, "{:>3}x{:<3}| {:>6}", p.side, p.side, p.makespan);
            }
        }
        ["check", path, placement_path] => {
            let instance = load_instance(path, &options)?;
            let text = std::fs::read_to_string(placement_path)
                .map_err(|e| CliError::runtime(format!("cannot read {placement_path}: {e}")))?;
            let placement = format::parse_placement(&text, &instance)
                .map_err(|e| CliError::runtime(format!("{placement_path}: {e}")))?;
            match placement.verify(&instance) {
                Ok(()) => {
                    let _ = writeln!(
                        out,
                        "valid: fits {} within {} cycles (makespan {})",
                        instance.chip(),
                        instance.horizon(),
                        placement.makespan()
                    );
                }
                Err(e) => return Err(CliError::runtime(format!("invalid placement: {e}"))),
            }
        }
        ["render", path, placement_path] => {
            let instance = load_instance(path, &options)?;
            let text = std::fs::read_to_string(placement_path)
                .map_err(|e| CliError::runtime(format!("cannot read {placement_path}: {e}")))?;
            let placement = format::parse_placement(&text, &instance)
                .map_err(|e| CliError::runtime(format!("{placement_path}: {e}")))?;
            if options.svg {
                out.push_str(&render::svg(&placement, &instance));
            } else {
                out.push_str(&render::gantt(&placement, &instance));
            }
        }
        ["sample", which] => {
            let instance = match *which {
                "de" => benchmarks::de(Chip::square(32), 6),
                "codec" => benchmarks::video_codec(Chip::square(64), 59),
                "pair" => {
                    use recopack_model::Task;
                    Instance::builder()
                        .chip(Chip::square(2))
                        .horizon(4)
                        .task(Task::new("a", 2, 2, 2))
                        .task(Task::new("b", 2, 2, 2))
                        .precedence("a", "b")
                        .build()
                        .expect("sample instance is valid")
                }
                other => {
                    return Err(CliError::usage(format!(
                        "unknown sample {other:?} (expected de, codec, or pair)"
                    )));
                }
            };
            out.push_str(&format::format_instance(&instance));
        }
        ["serve"] => {
            let stop = recopack_serve::install_shutdown_handler();
            let config = recopack_serve::ServeConfig {
                addr: options
                    .addr
                    .clone()
                    .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
                workers: options.threads,
                queue_depth: options.queue_depth,
                max_connections: options.max_connections,
                slow_job_ms: options.slow_job_ms,
                ..recopack_serve::ServeConfig::default()
            };
            let server = recopack_serve::Server::bind(&config)
                .map_err(|e| CliError::runtime(format!("cannot bind {}: {e}", config.addr)))?;
            server.run_until(stop);
            let _ = writeln!(out, "server drained and stopped");
        }
        ["trace", path] => {
            let text = if options.follow {
                trace::follow(path, Duration::from_millis(options.idle_timeout_ms))?
            } else {
                std::fs::read_to_string(path)
                    .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?
            };
            let (events, skipped) = trace::parse_ndjson(&text)?;
            if skipped > 0 {
                let _ = writeln!(
                    out,
                    "warning: skipped {skipped} malformed line{} in {path}",
                    if skipped == 1 { "" } else { "s" }
                );
            }
            let mut exported = false;
            if let Some(chrome_path) = &options.chrome {
                std::fs::write(chrome_path, trace::to_chrome(&events))
                    .map_err(|e| CliError::runtime(format!("cannot write {chrome_path}: {e}")))?;
                let _ = writeln!(
                    out,
                    "wrote Chrome trace for {} events to {chrome_path}",
                    events.len()
                );
                exported = true;
            }
            if let Some(folded_path) = &options.folded {
                std::fs::write(folded_path, trace::to_folded(&events, options.weight))
                    .map_err(|e| CliError::runtime(format!("cannot write {folded_path}: {e}")))?;
                let _ = writeln!(out, "wrote folded stacks to {folded_path}");
                exported = true;
            }
            if options.summary || !exported {
                out.push_str(&trace::summary(&events));
            }
        }
        [command, rest @ ..]
            if matches!(
                *command,
                "solve"
                    | "bmp"
                    | "spp"
                    | "pareto"
                    | "check"
                    | "render"
                    | "sample"
                    | "trace"
                    | "serve"
                    | "help"
            ) =>
        {
            return Err(CliError::usage(format!(
                "wrong number of operands for {command} (got {})\n\n{USAGE}",
                rest.len()
            )));
        }
        other => {
            return Err(CliError::usage(format!(
                "unrecognized command {:?}\n\n{USAGE}",
                other.join(" ")
            )));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("recopack-cli-test-{name}"));
        std::fs::write(&path, contents).expect("writable temp dir");
        path
    }

    #[test]
    fn help_and_empty_print_usage() {
        assert_eq!(run(&args(&["help"])).expect("ok"), USAGE);
        assert_eq!(run(&args(&[])).expect("ok"), USAGE);
    }

    #[test]
    fn unknown_command_and_flag_are_usage_errors() {
        let err = run(&args(&["frobnicate"])).expect_err("usage error");
        assert_eq!(err.exit_code, 2);
        let err = run(&args(&["solve", "x", "--wat"])).expect_err("usage error");
        assert_eq!(err.exit_code, 2);
    }

    #[test]
    fn sample_roundtrips_through_solve() {
        let sample = run(&args(&["sample", "pair"])).expect("sample");
        let path = temp_file("pair.rpk", &sample);
        let output = run(&args(&["solve", path.to_str().expect("utf8 path")])).expect("solves");
        assert!(output.contains("feasible"), "{output}");
        assert!(output.contains('#'), "gantt expected: {output}");
    }

    #[test]
    fn solve_reports_infeasibility() {
        let path = temp_file(
            "tight.rpk",
            "chip 2 2\nhorizon 3\ntask a 2 2 2\ntask b 2 2 2\narc a b\n",
        );
        let output = run(&args(&["solve", path.to_str().expect("utf8 path")])).expect("runs");
        assert!(output.contains("infeasible"), "{output}");
    }

    #[test]
    fn bmp_and_spp_optimize_the_pair() {
        let path = temp_file(
            "pair2.rpk",
            "chip 2 2\nhorizon 4\ntask a 2 2 2\ntask b 2 2 2\narc a b\n",
        );
        let p = path.to_str().expect("utf8 path");
        let bmp = run(&args(&["bmp", p])).expect("bmp");
        assert!(bmp.contains("2x2"), "{bmp}");
        let spp = run(&args(&["spp", p])).expect("spp");
        assert!(spp.contains("4 cycles"), "{spp}");
        let pareto = run(&args(&["pareto", p])).expect("pareto");
        assert!(pareto.contains('|'), "{pareto}");
    }

    /// Two chained modules of 2^63 cycles: no makespan within `u64` fits
    /// them on any chip. That is an answer, not a spent budget, and no
    /// module is too large for the chip.
    #[test]
    fn no_makespan_within_u64_is_an_answer() {
        let half = 1u64 << 63;
        let path = temp_file(
            "past-u64.rpk",
            &format!("chip 2 2\nhorizon 1\ntask a 1 1 {half}\ntask b 1 1 {half}\narc a b\n"),
        );
        let p = path.to_str().expect("utf8 path");
        let pareto = run(&args(&["pareto", p])).expect("an empty front");
        assert_eq!(pareto.lines().count(), 1, "header only: {pareto}");
        let err = run(&args(&["spp", p])).expect_err("no makespan");
        assert_eq!(err.exit_code, 1);
        assert_eq!(err.message, "no makespan within u64 admits a packing");
        let wide = temp_file("too-wide.rpk", "chip 2 2\nhorizon 1\ntask a 3 1 1\n");
        let err = run(&args(&["spp", wide.to_str().expect("utf8 path")])).expect_err("too wide");
        assert_eq!(err.message, "some module does not fit the chip spatially");
    }

    #[test]
    fn no_precedence_changes_answers() {
        let path = temp_file(
            "pair3.rpk",
            "chip 4 2\nhorizon 2\ntask a 2 2 2\ntask b 2 2 2\narc a b\n",
        );
        let p = path.to_str().expect("utf8 path");
        let with = run(&args(&["solve", p])).expect("runs");
        assert!(with.contains("infeasible"), "{with}");
        let without = run(&args(&["solve", p, "--no-precedence"])).expect("runs");
        assert!(without.contains("feasible on"), "{without}");
    }

    #[test]
    fn floorplans_render_between_events() {
        let path = temp_file(
            "pair4.rpk",
            "chip 2 2\nhorizon 4\ntask a 2 2 2\ntask b 2 2 2\narc a b\n",
        );
        let p = path.to_str().expect("utf8 path");
        let output = run(&args(&["solve", p, "--floorplans"])).expect("runs");
        assert!(output.contains("cycles [0, 2):"), "{output}");
        assert!(output.contains("aa"), "{output}");
    }

    #[test]
    fn answers_too_large_to_draw_still_print() {
        let path = temp_file(
            "long.rpk",
            "chip 2 2\nhorizon 1000000000000\ntask a 1 1 1000000000000\n",
        );
        let output = run(&args(&["solve", path.to_str().expect("utf8 path")])).expect("runs");
        assert!(output.contains("feasible"), "{output}");
        let path = temp_file(
            "wide.rpk",
            "chip 1000000000 1000000000\nhorizon 4\ntask a 2 2 2\ntask b 2 2 2\n",
        );
        let p = path.to_str().expect("utf8 path");
        let output = run(&args(&["solve", p, "--floorplans"])).expect("runs");
        assert!(output.contains("floorplan not drawn"), "{output}");
    }

    #[test]
    fn missing_file_is_a_runtime_error() {
        let err = run(&args(&["solve", "/nonexistent/zzz.rpk"])).expect_err("io error");
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("cannot read"));
    }

    #[test]
    fn threads_flag_parses_and_preserves_answers() {
        let path = temp_file(
            "threads.rpk",
            "chip 2 2\nhorizon 4\ntask a 2 2 2\ntask b 2 2 2\narc a b\n",
        );
        let p = path.to_str().expect("utf8 path");
        let seq = run(&args(&["solve", p])).expect("runs");
        for t in ["1", "4", "auto"] {
            let par = run(&args(&["solve", p, "--threads", t])).expect("runs");
            assert_eq!(par, seq, "--threads {t} changed the output");
        }
        let inline = run(&args(&["solve", p, "--threads=4"])).expect("runs");
        assert_eq!(inline, seq, "--threads=4 changed the output");
        let err = run(&args(&["solve", p, "--threads"])).expect_err("missing value");
        assert_eq!(err.exit_code, 2);
        let err = run(&args(&["solve", p, "--threads", "many"])).expect_err("bad value");
        assert!(err.message.contains("expects a number"), "{err:?}");
        let err = run(&args(&["solve", p, "--threads", "0"])).expect_err("zero threads");
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("--threads auto"), "{err:?}");
    }

    #[test]
    fn argument_hardening_rejects_malformed_usage() {
        // Single-dash unknowns are options, not operands.
        let err = run(&args(&["solve", "x.rpk", "-q"])).expect_err("unknown short flag");
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("unknown option"), "{err:?}");
        // Unknown flags after operands error the same way.
        let err = run(&args(&["solve", "x.rpk", "--wat=3"])).expect_err("unknown flag");
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("unknown option"), "{err:?}");
        // Boolean flags reject inline values.
        let err = run(&args(&["solve", "x.rpk", "--svg=yes"])).expect_err("inline value");
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("does not take a value"), "{err:?}");
        // Wrong operand counts are usage errors, not file errors.
        for cmd in ["solve", "bmp", "spp", "pareto", "trace", "sample"] {
            let err = run(&args(&[cmd])).expect_err("missing operand");
            assert_eq!(err.exit_code, 2, "{cmd}");
            assert!(err.message.contains("wrong number of operands"), "{err:?}");
        }
        let err = run(&args(&["solve", "a.rpk", "b.rpk"])).expect_err("extra operand");
        assert_eq!(err.exit_code, 2);
        // Progress intervals must be numeric.
        let err = run(&args(&["solve", "x.rpk", "--progress=soon"])).expect_err("bad ms");
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("milliseconds"), "{err:?}");
    }

    #[test]
    fn sample_profile_flag_validates_and_writes_folded_stacks() {
        let path = temp_file(
            "sample.rpk",
            "chip 4 4\nhorizon 2\ntask a 2 2 2\ntask b 2 2 2\ntask c 2 2 2\n\
             task d 2 2 2\ntask e 2 2 2\n",
        );
        let p = path.to_str().expect("utf8 path");
        let folded_path = temp_file("sample.folded", "");
        let fp = folded_path.to_str().expect("utf8 path");
        let out = run(&args(&[
            "solve",
            p,
            "--no-bounds",
            "--no-heuristics",
            "--sample-profile=1000",
            "--sample-out",
            fp,
        ]))
        .expect("solves while sampling");
        assert!(out.contains("sampling profile:"), "{out}");
        assert!(out.contains(fp), "{out}");
        // Sampling is statistical: the capture may be empty on a fast
        // solve, but every captured line must be a folded stack.
        let folded = std::fs::read_to_string(&folded_path).expect("folded written");
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("stack and weight");
            assert!(stack.starts_with("worker:"), "{line}");
            weight.parse::<u64>().expect("numeric weight");
        }
        // Rate validation: zero and non-numeric rates are usage errors.
        let err = run(&args(&["solve", p, "--sample-profile=0"])).expect_err("zero hz");
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("positive Hz"), "{err:?}");
        let err = run(&args(&["solve", p, "--sample-profile=fast"])).expect_err("bad hz");
        assert_eq!(err.exit_code, 2);
        // --idle-timeout-ms validates too.
        let err = run(&args(&["trace", p, "--idle-timeout-ms", "soon"])).expect_err("bad ms");
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("milliseconds"), "{err:?}");
    }

    #[test]
    fn stats_json_writes_versioned_reports() {
        let path = temp_file(
            "stats.rpk",
            "chip 2 2\nhorizon 4\ntask a 2 2 2\ntask b 2 2 2\narc a b\n",
        );
        let p = path.to_str().expect("utf8 path");
        for command in ["solve", "bmp", "spp", "pareto"] {
            let report_path = temp_file(&format!("stats-{command}.json"), "");
            let rp = report_path.to_str().expect("utf8 path");
            run(&args(&[command, p, "--stats-json", rp])).expect("runs");
            let json = std::fs::read_to_string(&report_path).expect("report written");
            assert!(
                json.starts_with("{\"schema_version\":3"),
                "{command}: {json}"
            );
            assert!(
                json.contains(&format!("\"command\":\"{command}\"")),
                "{command}: {json}"
            );
            assert!(json.contains("\"wall_ms\":"), "{command}: {json}");
            assert!(json.contains("\"conflicts\":{"), "{command}: {json}");
            assert!(json.contains("\"depth_histogram\":["), "{command}: {json}");
            assert!(json.contains("\"timings\":{"), "{command}: {json}");
            // No journal was installed, so its dropped count is null.
            assert!(
                json.contains("\"journal_dropped\":null"),
                "{command}: {json}"
            );
        }
        // Infeasible solves are reported too.
        let tight = temp_file(
            "stats-tight.rpk",
            "chip 2 2\nhorizon 3\ntask a 2 2 2\ntask b 2 2 2\narc a b\n",
        );
        let report_path = temp_file("stats-tight.json", "");
        run(&args(&[
            "solve",
            tight.to_str().expect("utf8 path"),
            "--stats-json",
            report_path.to_str().expect("utf8 path"),
        ]))
        .expect("runs");
        let json = std::fs::read_to_string(&report_path).expect("report written");
        assert!(json.contains("\"outcome\":\"infeasible\""), "{json}");
        // And the flag validates its argument.
        let err = run(&args(&["solve", p, "--stats-json"])).expect_err("missing path");
        assert_eq!(err.exit_code, 2);
    }

    #[test]
    fn trace_pipeline_records_exports_and_summarizes() {
        use recopack_json::Json;

        let path = temp_file(
            "trace.rpk",
            "chip 4 4\nhorizon 2\ntask a 2 2 2\ntask b 2 2 2\ntask c 2 2 2\n\
             task d 2 2 2\ntask e 2 2 2\n",
        );
        let p = path.to_str().expect("utf8 path");
        let trace_path = temp_file("trace.ndjson", "");
        let tp = trace_path.to_str().expect("utf8 path");
        let report_path = temp_file("trace-report.json", "");
        let rp = report_path.to_str().expect("utf8 path");
        // Bounds and heuristics would settle this instance before the
        // search starts; disabling them makes the event stream non-trivial.
        run(&args(&[
            "solve",
            p,
            "--no-bounds",
            "--no-heuristics",
            "--trace",
            tp,
            "--stats-json",
            rp,
            "--profile",
        ]))
        .expect("solves");

        // Every line of the journal is a standalone JSON object.
        let ndjson = std::fs::read_to_string(&trace_path).expect("trace written");
        assert!(
            ndjson.lines().count() > 10,
            "search-heavy instance expected"
        );
        for line in ndjson.lines() {
            Json::parse(line).expect("valid NDJSON line");
        }

        // The stats report carries the journal's dropped count.
        let report = Json::parse(
            std::fs::read_to_string(&report_path)
                .expect("report written")
                .trim(),
        )
        .expect("report parses");
        let branches = ndjson
            .lines()
            .filter(|line| line.contains("\"event\":\"branch\""))
            .count() as u64;
        assert!(branches > 0);
        assert_eq!(
            report.get("journal_dropped").and_then(Json::as_u64),
            Some(0)
        );
        // --profile: the search spent measurable time somewhere.
        let timings = report
            .get("stats")
            .and_then(|s| s.get("timings"))
            .expect("timings");
        let spent: u64 = ["propagate_ns", "bounds_ns", "realize_ns"]
            .iter()
            .filter_map(|k| timings.get(k).and_then(Json::as_u64))
            .sum();
        let prunes: u64 = ["c2", "c3", "c4", "orientation"]
            .iter()
            .filter_map(|k| {
                timings
                    .get("prune_ns")
                    .and_then(|p| p.get(k))
                    .and_then(Json::as_u64)
            })
            .sum();
        assert!(
            spent + prunes > 0,
            "profiling collected no time: {timings:?}"
        );

        // The trace subcommand exports Chrome JSON and folded stacks.
        let chrome_path = temp_file("trace.chrome.json", "");
        let folded_path = temp_file("trace.folded", "");
        let cp = chrome_path.to_str().expect("utf8 path");
        let fp = folded_path.to_str().expect("utf8 path");
        let out = run(&args(&[
            "trace",
            tp,
            "--chrome",
            cp,
            "--folded",
            fp,
            "--summary",
        ]))
        .expect("exports");
        assert!(out.contains("wrote Chrome trace"), "{out}");
        assert!(out.contains("trace:"), "summary expected: {out}");
        assert!(out.contains("depth profile"), "{out}");

        let chrome = Json::parse(&std::fs::read_to_string(&chrome_path).expect("chrome written"))
            .expect("chrome parses");
        let slices = chrome
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        let count = |ph: &str| {
            slices
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert!(count("B") > 0);
        assert_eq!(count("B"), count("E"), "all slices closed");

        // Folded node weights sum to the journal's branch events.
        let folded = std::fs::read_to_string(&folded_path).expect("folded written");
        let weight_sum: u64 = folded
            .lines()
            .map(|l| {
                l.rsplit(' ')
                    .next()
                    .expect("weight column")
                    .parse::<u64>()
                    .expect("numeric weight")
            })
            .sum();
        assert_eq!(weight_sum, branches);

        // Bare `trace` defaults to the summary.
        let out = run(&args(&["trace", tp])).expect("summarizes");
        assert!(out.contains("depth profile"), "{out}");
        // t_ns weighting works too.
        let out = run(&args(&["trace", tp, "--folded", fp, "--weight", "t_ns"]))
            .expect("time-weighted folded");
        assert!(out.contains("wrote folded stacks"), "{out}");
        let err = run(&args(&["trace", tp, "--weight", "bytes"])).expect_err("bad weight");
        assert_eq!(err.exit_code, 2);
    }

    #[test]
    fn serve_flags_validate() {
        let err = run(&args(&["serve", "extra"])).expect_err("no operands");
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("wrong number of operands"), "{err:?}");
        let err = run(&args(&["serve", "--addr"])).expect_err("missing value");
        assert_eq!(err.exit_code, 2);
        let err = run(&args(&["serve", "--queue-depth", "0"])).expect_err("zero depth");
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("positive number"), "{err:?}");
        let err = run(&args(&["serve", "--queue-depth", "soon"])).expect_err("bad depth");
        assert_eq!(err.exit_code, 2);
        let err = run(&args(&["serve", "--slow-job-ms", "soon"])).expect_err("bad threshold");
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("milliseconds"), "{err:?}");
        let err = run(&args(&["serve", "--slow-job-ms", "-5"])).expect_err("negative threshold");
        assert_eq!(err.exit_code, 2);
        let err = run(&args(&["serve", "--addr", "not an address"])).expect_err("bad bind");
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("cannot bind"), "{err:?}");
    }

    #[test]
    fn serve_boots_and_drains_on_the_shutdown_flag() {
        use std::sync::atomic::Ordering;
        // Trip the shutdown flag up front: the server must bind, notice the
        // flag, drain, and return instead of serving forever.
        recopack_serve::install_shutdown_handler().store(true, Ordering::Relaxed);
        let out = run(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--queue-depth",
            "2",
        ]))
        .expect("serves and drains");
        assert!(out.contains("server drained and stopped"), "{out}");
    }

    #[test]
    fn trace_skips_malformed_lines_with_a_warning() {
        let path = temp_file(
            "mixed.ndjson",
            "{\"subtree\":0,\"depth\":0,\"t_ns\":5,\"event\":\"backtrack\"}\n\
             not json at all\n",
        );
        let out = run(&args(&["trace", path.to_str().expect("utf8 path")])).expect("summarizes");
        assert!(out.contains("skipped 1 malformed line"), "{out}");
        assert!(out.contains("1 events"), "{out}");
        // A document with no valid events at all still fails loudly.
        let bad = temp_file("bad.ndjson", "garbage\nmore garbage\n");
        let err = run(&args(&["trace", bad.to_str().expect("utf8 path")])).expect_err("no events");
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("no valid trace events"), "{err:?}");
    }

    #[test]
    fn trace_follow_tails_a_growing_journal_until_its_end_record() {
        use std::io::Write as _;
        let path = temp_file("follow.ndjson", "");
        let writer_path = path.clone();
        // A writer thread grows the journal in split chunks — including a
        // line broken across two appends — then lands the end record.
        let writer = std::thread::spawn(move || {
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&writer_path)
                .expect("journal opens for append");
            let chunks: &[&str] = &[
                "{\"subtree\":0,\"depth\":0,\"t_ns\":100,\"event\":\"branch\",\
                 \"dim\":0,\"pair\":0,\"component\":true}\n{\"subtree\":0,",
                "\"depth\":1,\"t_ns\":200,\"event\":\"backtrack\"}\n",
                "{\"event\":\"end\",\"job\":1,\"status\":\"done\",\"dropped\":0}\n",
            ];
            for chunk in chunks {
                file.write_all(chunk.as_bytes()).expect("append");
                file.flush().expect("flush");
                std::thread::sleep(std::time::Duration::from_millis(60));
            }
        });
        let out = run(&args(&[
            "trace",
            path.to_str().expect("utf8 path"),
            "--follow",
        ]))
        .expect("follow summarizes");
        writer.join().expect("writer thread");
        // Both real events arrived (the split line was reassembled) and the
        // end record terminated the tail without being parsed as an event.
        assert!(out.contains("2 events"), "{out}");
        assert!(!out.contains("malformed"), "{out}");
    }

    #[test]
    fn samples_match_benchmarks() {
        let de = run(&args(&["sample", "de"])).expect("de");
        assert!(de.contains("task v1 16 16 2"));
        let codec = run(&args(&["sample", "codec"])).expect("codec");
        assert!(codec.contains("motion_estimation 64 64 24"));
        let err = run(&args(&["sample", "zzz"])).expect_err("unknown sample");
        assert_eq!(err.exit_code, 2);
    }
}

#[cfg(test)]
mod roundtrip_tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("recopack-cli-rt-{name}"));
        std::fs::write(&path, contents).expect("writable temp dir");
        path
    }

    #[test]
    fn solve_emit_check_render_pipeline() {
        let instance_text = "chip 2 2\nhorizon 4\ntask a 2 2 2\ntask b 2 2 2\narc a b\n";
        let ipath = temp_file("pipe.rpk", instance_text);
        let ip = ipath.to_str().expect("utf8 path");
        let solved = run(&args(&["solve", ip, "--emit-placement"])).expect("solves");
        // Extract the `place` lines and feed them back through check/render.
        let placement_text: String = solved
            .lines()
            .filter(|l| l.starts_with("place "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(placement_text.lines().count(), 2);
        let ppath = temp_file("pipe.place", &placement_text);
        let pp = ppath.to_str().expect("utf8 path");
        let checked = run(&args(&["check", ip, pp])).expect("valid placement");
        assert!(checked.contains("valid:"), "{checked}");
        let gantt = run(&args(&["render", ip, pp])).expect("renders");
        assert!(gantt.contains('#'), "{gantt}");
        let svg = run(&args(&["render", ip, pp, "--svg"])).expect("renders svg");
        assert!(svg.starts_with("<svg"), "{svg}");
    }

    #[test]
    fn check_rejects_bad_placements() {
        let instance_text = "chip 2 2\nhorizon 4\ntask a 2 2 2\ntask b 2 2 2\narc a b\n";
        let ipath = temp_file("bad.rpk", instance_text);
        let ppath = temp_file("bad.place", "place a 0 0 0\nplace b 0 0 0\n");
        let err = run(&args(&[
            "check",
            ipath.to_str().expect("utf8 path"),
            ppath.to_str().expect("utf8 path"),
        ]))
        .expect_err("overlap");
        assert!(err.message.contains("invalid placement"), "{err:?}");
    }
}
