//! `recopack-bench`: the reproducible benchmark runner.
//!
//! Runs the pinned instance suite of [`recopack_bench::suite`] at the
//! thread counts pinned per case, writes a versioned JSON report, and
//! optionally gates against a committed baseline:
//!
//! ```text
//! recopack-bench [--smoke] [--only NAME] [--profile] [--out PATH]
//!                [--label NAME] [--check BASELINE]
//!                [--sample-profile[=HZ]] [--sample-out PATH]
//! ```
//!
//! * `--smoke` — run the CI smoke subset instead of the full suite;
//! * `--only NAME` — run a single case by name;
//! * `--profile` — collect per-phase wall times into each case's stats;
//! * `--out PATH` — report path (default `target/recopack-bench.json`);
//! * `--label NAME` — report label (default `local`);
//! * `--check BASELINE` — compare node counts against a previous report,
//!   check two-thread wall-clock parity (t2 walls may sum to at most 1.5×
//!   the t1 walls across the paired families), and exit nonzero on a
//!   regression. The search is deterministic, so the node-count gate
//!   requires *exact* equality and flags any drift in either direction;
//! * `--sample-profile[=HZ]` — run the always-on sampling profiler (default
//!   97 Hz) across the suite and write folded stacks to `--sample-out`
//!   (default `bench.folded`). Beacons are pure stores, so the node-count
//!   gate holds bit-exactly with sampling enabled.
//!
//! Node counts are deterministic per case (see the suite docs), so the gate
//! compares them exactly. Wall times are single runs and informational;
//! `perfbench/` is the benchmark of record for timing.

use std::process::ExitCode;

use recopack_bench::json::Json;
use recopack_bench::suite::{
    check_against_baseline, check_parallel_parity, run_suite_with, SuiteOptions,
};
use recopack_core::{Sampler, SAMPLER_DEFAULT_HZ};

/// Generous ceiling for the `--check` wall-clock parity gate: summed over
/// the paired families, two-thread walls may cost at most 1.5× the
/// one-thread walls (see [`check_parallel_parity`]).
const PARITY_MAX_PERCENT: u64 = 150;

struct Args {
    smoke: bool,
    only: Option<String>,
    profile: bool,
    out: Option<String>,
    label: String,
    check: Option<String>,
    sample_profile: Option<u64>,
    sample_out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        only: None,
        profile: false,
        out: None,
        label: "local".to_string(),
        check: None,
        sample_profile: None,
        sample_out: "bench.folded".to_string(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--only" => args.only = Some(iter.next().ok_or("--only requires a case name")?),
            "--profile" => args.profile = true,
            "--out" => args.out = Some(iter.next().ok_or("--out requires a path")?),
            "--label" => args.label = iter.next().ok_or("--label requires a name")?,
            "--check" => args.check = Some(iter.next().ok_or("--check requires a path")?),
            "--sample-profile" => args.sample_profile = Some(SAMPLER_DEFAULT_HZ),
            "--sample-out" => {
                args.sample_out = iter.next().ok_or("--sample-out requires a path")?;
            }
            "--help" | "-h" => {
                return Err("usage: recopack-bench [--smoke] [--only NAME] [--profile] \
                     [--out PATH] [--label NAME] [--check BASELINE] \
                     [--sample-profile[=HZ]] [--sample-out PATH]"
                    .to_string());
            }
            other => match other.strip_prefix("--sample-profile=") {
                Some(value) => {
                    let hz: u64 = value.parse().map_err(|_| {
                        format!("--sample-profile expects a Hz rate, got {value:?}")
                    })?;
                    if hz == 0 {
                        return Err("--sample-profile expects a positive Hz rate".to_string());
                    }
                    args.sample_profile = Some(hz);
                }
                None => return Err(format!("unknown argument {other:?} (try --help)")),
            },
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let out = args
        .out
        .unwrap_or_else(|| "target/recopack-bench.json".to_string());
    let sampler = args.sample_profile.map(Sampler::start);
    let report = run_suite_with(&SuiteOptions {
        smoke: args.smoke,
        label: args.label.clone(),
        profile: args.profile,
        only: args.only.clone(),
    });
    if let Some(sampler) = sampler {
        let profile = sampler.stop();
        match std::fs::write(&args.sample_out, profile.to_folded()) {
            Ok(()) => println!(
                "sampling profile: {} samples at {} Hz, {} stacks -> {}",
                profile.samples,
                profile.hz,
                profile.stacks.len(),
                args.sample_out
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", args.sample_out);
                return ExitCode::FAILURE;
            }
        }
    }
    if report.cases.is_empty() {
        eprintln!("no case matched the selection (see --only)");
        return ExitCode::from(2);
    }
    println!(
        "{:<22} {:>3} {:>12} {:>10} {:>10}  outcome",
        "case", "thr", "nodes", "conflicts", "wall_ms"
    );
    for case in &report.cases {
        println!(
            "{:<22} {:>3} {:>12} {:>10} {:>10.2}  {}",
            case.instance,
            case.threads,
            case.stats.nodes,
            case.stats.conflicts(),
            case.wall_ms,
            case.outcome
        );
    }
    let parent = std::path::Path::new(&out).parent();
    if let Err(e) = parent.map_or(Ok(()), std::fs::create_dir_all) {
        eprintln!("cannot create the directory of {out}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("report written to {out}");

    let Some(baseline_path) = &args.check else {
        return ExitCode::SUCCESS;
    };
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("malformed baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let gate = check_against_baseline(&report, &baseline);
    println!("\nexact node-count gate vs {baseline_path}:");
    for line in &gate.lines {
        println!("  {line}");
    }
    let parity = check_parallel_parity(&report, PARITY_MAX_PERCENT);
    println!(
        "\nparallel parity gate (t2 <= {:.2}x t1, summed over pairs):",
        PARITY_MAX_PERCENT as f64 / 100.0
    );
    for line in &parity.lines {
        println!("  {line}");
    }
    if gate.passed() && parity.passed() {
        println!("gate passed");
        ExitCode::SUCCESS
    } else {
        for regression in gate.regressions.iter().chain(&parity.regressions) {
            eprintln!("regression: {regression}");
        }
        ExitCode::FAILURE
    }
}
