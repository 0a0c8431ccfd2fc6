//! `recopack-perfbench`: the seeded end-to-end and per-layer benchmark of
//! the recopack solvers and service.
//!
//! ```text
//! recopack-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                    [--out-dir DIR] [--smoke]
//! ```
//!
//! The run generates its inputs from the seed, measures for the given
//! seconds, checks every answer, prints one `name value unit` line per
//! metric, and ends with one JSON line holding `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` the same inputs are replayed with spans and the
//! metrics are the per-layer ones, and the spans are written as Chrome
//! trace JSON to `DIR/trace-NAME.json` when `--out-dir` is given.
//! `--smoke` shrinks inputs and set-up for a quick consistency check. Any
//! wrong answer makes the exit code nonzero. See README.md for the
//! workloads and metrics.

mod check;
mod gen;
mod serve;
mod solver;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use recopack_json::Json;

use crate::trace::Trace;

const USAGE: &str = "usage: recopack-perfbench --workload paper|decide_mix|search_proof|serve_mix \
                     --seed N --seconds S --trace 0|1 [--out-dir DIR] [--smoke]";

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The end-to-end metrics, printed on untraced runs, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed on traced runs, with their units. A
/// workload reports 0 for a layer it does not exercise.
const PER_LAYER: [(&str, &str); 45] = [
    ("bounds.calls", "count"),
    ("bounds.us_per_call", "us"),
    ("bounds.refuted_share", "ratio"),
    ("bounds.self_share", "ratio"),
    ("heur.calls", "count"),
    ("heur.us_per_call", "us"),
    ("heur.success_share", "ratio"),
    ("heur.self_share", "ratio"),
    ("bounds_heur.instance_share_p50", "ratio"),
    ("core.search.nodes", "count"),
    ("core.search.ns_per_node", "ns"),
    ("core.search.self_share", "ratio"),
    ("core.search.propagation_events", "count"),
    ("core.search.leaf_reject_share", "ratio"),
    ("core.search.t2_over_t1", "ratio"),
    ("core.search.conflicts.c2", "count"),
    ("core.search.conflicts.c3", "count"),
    ("core.search.conflicts.c4", "count"),
    ("core.search.conflicts.orientation", "count"),
    ("core.search.propagate_share", "ratio"),
    ("core.search.realize_share", "ratio"),
    ("core.search.other_share", "ratio"),
    ("core.search.prune_share.c2", "ratio"),
    ("core.search.prune_share.c3", "ratio"),
    ("core.search.prune_share.c4", "ratio"),
    ("core.search.prune_share.orientation", "ratio"),
    ("core.opt.decisions", "count"),
    ("core.opt.ms_per_decision", "ms"),
    ("core.opt.unattributed_share", "ratio"),
    ("model.parse_us", "us"),
    ("serve.http.submit_us", "us"),
    ("serve.http.poll_us", "us"),
    ("serve.http.polls_per_job", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.solve_share", "ratio"),
    ("serve.rejected", "count"),
    ("serve.attributed_share", "ratio"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.dedup_share", "ratio"),
    ("serve.cache.canonicalize_us", "us"),
    ("load.late_p99_ms", "ms"),
    ("load.offered_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.attributed_share", "ratio"),
];

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Paper,
    DecideMix,
    SearchProof,
    ServeMix,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::DecideMix,
        Workload::SearchProof,
        Workload::ServeMix,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::DecideMix => "decide_mix",
            Workload::SearchProof => "search_proof",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// The command line.
pub struct Options {
    workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Replay with spans and report per-layer metrics.
    pub trace: bool,
    out_dir: Option<PathBuf>,
    smoke: bool,
}

impl Options {
    /// How many times set-up runs; the median is reported.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// How many warm-up jobs to solve where a full run solves `full`.
    pub fn warm_jobs(&self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(6)
        } else {
            full
        }
    }

    /// How many stream jobs the traced replay covers, at `per_second` jobs
    /// per measured second.
    pub fn trace_jobs(&self, per_second: f64) -> usize {
        ((per_second * self.seconds).ceil() as usize).max(1)
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut smoke = false;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        smoke,
    })
}

/// What one workload run found.
pub struct Report {
    /// Jobs attempted in the reported phase.
    pub attempted: u64,
    /// Jobs that errored (transport errors, refusals, non-2xx answers, jobs
    /// ending `failed`).
    pub failed: u64,
    /// Why each wrong answer is wrong.
    pub wrong: Vec<String>,
    /// Metric values by name.
    pub values: Values,
    /// Context printed with the metrics (sample counts, percentiles used).
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub trace: Option<Trace>,
}

impl Report {
    /// An empty report of `attempted` jobs.
    pub fn new(attempted: u64) -> Self {
        Self {
            attempted,
            failed: 0,
            wrong: Vec::new(),
            values: Values::new(),
            notes: Vec::new(),
            trace: None,
        }
    }
}

/// The one-, five- and fifteen-minute load averages.
fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|text| {
            text.split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_else(|_| "unavailable".to_string())
}

/// This process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn run(options: &Options) -> Result<ExitCode, String> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# env available_parallelism {parallelism}");
    println!("# env loadavg_start {}", loadavg());
    println!(
        "# env build {}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    println!(
        "# env workload {} seed {} seconds {} trace {}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );

    let mut report = match options.workload {
        Workload::Paper => solver::paper(options),
        Workload::DecideMix => solver::decide_mix(options),
        Workload::SearchProof => solver::search_proof(options),
        Workload::ServeMix => serve::serve_mix(options)?,
    };
    println!("# env loadavg_end {}", loadavg());
    for note in &report.notes {
        println!("# {note}");
    }
    for why in &report.wrong {
        println!("# wrong answer: {why}");
    }

    let table: &[(&str, &str)] = if options.trace {
        &PER_LAYER
    } else {
        report.values.insert("peak_rss_mb", peak_rss_mb()?);
        &END_TO_END
    };
    if let Some(unknown) = report
        .values
        .keys()
        .find(|name| !table.iter().any(|(known, _)| known == *name))
    {
        return Err(format!(
            "workload reported an undeclared metric {unknown:?}"
        ));
    }
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match report.values.get(name) {
            Some(&value) => value,
            None if options.trace => 0.0,
            None => return Err(format!("workload did not report {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        println!("{name} {value} {unit}");
        metrics.push((
            name.to_string(),
            Json::Object(vec![
                ("value".to_string(), Json::Number(value)),
                ("unit".to_string(), Json::String(unit.to_string())),
            ]),
        ));
    }

    if let (Some(trace), Some(dir)) = (&report.trace, &options.out_dir) {
        let path = dir.join(format!("trace-{}.json", options.workload.name()));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace.to_chrome_json()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "# trace {} spans -> {}",
            trace.spans().len(),
            path.display()
        );
    }

    let correct = report.wrong.is_empty();
    let result = Json::Object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        (
            "attempted".to_string(),
            Json::Number(report.attempted as f64),
        ),
        ("failed".to_string(), Json::Number(report.failed as f64)),
        ("metrics".to_string(), Json::Object(metrics)),
    ]);
    println!("{}", result.to_json_string());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("recopack-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = parse("--workload serve_mix --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(o.workload, Workload::ServeMix);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (7, 12.0, true, false)
        );
        assert_eq!(o.setup_repeats(), 5);
        assert_eq!(o.trace_jobs(1.0), 12);
        assert_eq!(o.trace_jobs(0.01), 1);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper --seed x --seconds 1 --trace 0",
            "--workload paper --seed 1 --seconds 0 --trace 0",
            "--workload paper --seed 1 --seconds 1 --trace 2",
            "--workload paper --seed 1 --seconds 1",
            "--workload paper --seed 1 --seconds 1 --trace 0 --bogus 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16 && !unit.is_empty());
        }
    }
}
