//! The pinned instance suite behind the `recopack-bench` binary and the CI
//! `bench-smoke` gate.
//!
//! Every case is fully determined by this file: instances come from the
//! paper's benchmarks and from seeded generators, and thread counts are
//! pinned per case. Node counts (and every other
//! [`SolverStats`](recopack_core::SolverStats) counter)
//! are reproducible run over run:
//!
//! * cases that may be *feasible* run at `threads = 1` only — parallel
//!   cancellation can change how much of the tree is explored before the
//!   certificate is found;
//! * *infeasible-by-construction* cases run at higher thread counts too: an
//!   exhausted search explores the same tree for every thread count.
//!
//! Wall times are reported but never gated; the regression gate compares
//! node counts only (see [`check_against_baseline`]).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use recopack_core::{
    per_second, Bmp, Opp, SolveOutcome, SolveReport, SolverConfig, Spp, TELEMETRY_SCHEMA_VERSION,
};
use recopack_model::generate::{layered_instance, random_instance, GeneratorConfig, LayeredConfig};
use recopack_model::{benchmarks, Chip, Instance, Task};

use crate::json::Json;
use crate::search_only;

/// Which solver a bench case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// One feasibility decision ([`Opp`]).
    Opp,
    /// Square-chip minimization ([`Bmp`]).
    Bmp,
    /// Makespan minimization ([`Spp`]).
    Spp,
}

impl Command {
    /// Stable name used in the report JSON.
    pub const fn name(self) -> &'static str {
        match self {
            Command::Opp => "opp",
            Command::Bmp => "bmp",
            Command::Spp => "spp",
        }
    }
}

/// One pinned benchmark case.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Unique case name (doubles as the instance id in reports).
    pub name: String,
    /// The solver to run.
    pub command: Command,
    /// Whether the case is part of the CI smoke subset.
    pub smoke: bool,
    /// Pinned worker thread count.
    pub threads: usize,
    /// Run with bounds/heuristics disabled so the search itself is timed.
    pub search_only: bool,
    /// The instance (already transitively closed where applicable).
    pub instance: Instance,
}

/// `count >= 5` tasks of size `2×2×2` on a `4×4` chip with horizon 2:
/// every task must run in the only time slot, but the chip holds at most
/// four `2×2` footprints — infeasible, yet (with bounds disabled) provable
/// only by exhausting the spatial branching. This is the search-heavy
/// family of the suite: propagation cannot refute the root, so the node
/// count grows with `count` and is identical for every thread count.
fn quad_overflow(count: usize) -> Instance {
    let mut builder = Instance::builder().chip(Chip::square(4)).horizon(2);
    for i in 0..count {
        builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
    }
    builder
        .build()
        .expect("structurally valid")
        .with_transitive_closure()
}

/// The *deep* infeasible family: `quads` full-height `2×2×2` tasks plus
/// `units` unit-duration `2×2×1` tasks on the same `4×4`, horizon-2 chip.
/// The unit tasks can be time-separated, so the time dimension branches
/// too and the tree is orders of magnitude deeper than `quad_overflow`
/// (thousands to ~10⁵ nodes) — deep enough that the work-stealing
/// scheduler actually splits and the `_t2` runs measure real parallel
/// search, not just scheduler overhead. Still infeasible by volume, so
/// node counts stay thread-count invariant.
fn mixed_overflow(quads: usize, units: usize) -> Instance {
    let mut builder = Instance::builder().chip(Chip::square(4)).horizon(2);
    for i in 0..quads {
        builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
    }
    for i in 0..units {
        builder = builder.task(Task::new(format!("u{i}"), 2, 2, 1));
    }
    builder
        .build()
        .expect("structurally valid")
        .with_transitive_closure()
}

/// The full pinned suite, filtered to the smoke subset when `smoke` is set.
///
/// Case names are stable identifiers: the regression gate joins current and
/// baseline reports on `(name, command, threads)`.
pub fn cases(smoke: bool) -> Vec<BenchCase> {
    // Paper benchmarks: the full pipeline (bounds, heuristics, search).
    let mut all = vec![BenchCase {
        name: "de_opp_32x6".into(),
        command: Command::Opp,
        smoke: true,
        threads: 1,
        search_only: false,
        instance: benchmarks::de(Chip::square(32), 6).with_transitive_closure(),
    }];
    all.push(BenchCase {
        name: "de_opp_32x5_refuted".into(),
        command: Command::Opp,
        smoke: true,
        threads: 1,
        search_only: false,
        instance: benchmarks::de(Chip::square(32), 5).with_transitive_closure(),
    });
    all.push(BenchCase {
        name: "de_spp_16".into(),
        command: Command::Spp,
        smoke: false,
        threads: 1,
        search_only: false,
        instance: benchmarks::de(Chip::square(16), 1).with_transitive_closure(),
    });
    all.push(BenchCase {
        name: "de_bmp_t14".into(),
        command: Command::Bmp,
        smoke: false,
        threads: 1,
        search_only: false,
        instance: benchmarks::de(Chip::square(1), 14).with_transitive_closure(),
    });

    // Seeded random family: mixed shapes, layered DAG, volume-tight
    // container. Outcome varies by seed; feasible answers are possible, so
    // these stay sequential (see the module docs).
    for (i, seed) in [9001u64, 9002, 9003, 9004].into_iter().enumerate() {
        let config = GeneratorConfig {
            task_count: 7,
            max_side: 3,
            max_duration: 3,
            arc_percent: 30,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        all.push(BenchCase {
            name: format!("random_s{seed}"),
            command: Command::Opp,
            smoke: i < 2,
            threads: 1,
            search_only: true,
            instance: random_instance(&config, &mut rng).with_transitive_closure(),
        });
    }

    // Seeded layered (pipeline-shaped) family.
    for (i, seed) in [9101u64, 9102].into_iter().enumerate() {
        let config = LayeredConfig {
            layers: 3,
            width: 3,
            max_side: 3,
            max_duration: 3,
            arc_percent: 50,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        all.push(BenchCase {
            name: format!("layered_s{seed}"),
            command: Command::Opp,
            smoke: i < 1,
            threads: 1,
            search_only: true,
            instance: layered_instance(&config, &mut rng).with_transitive_closure(),
        });
    }

    // Infeasible-by-construction family: safe at any thread count, so this
    // is where the parallel merge path gets exercised deterministically.
    // The quad trees are a few hundred nodes — *below* the default split
    // threshold, so their `_t2` runs measure the scheduler's small-tree
    // tax (ideally zero).
    for count in [5usize, 6, 7] {
        for threads in [1usize, 2] {
            all.push(BenchCase {
                name: format!("quad{count}_t{threads}"),
                command: Command::Opp,
                smoke: count < 7,
                threads,
                search_only: true,
                instance: quad_overflow(count),
            });
        }
    }

    // Deep infeasible family (see `mixed_overflow`): thousands to ~10⁵
    // nodes, where the work-stealing scheduler genuinely splits. The
    // `_t2`/`_t1` wall ratio of these cases is the headline
    // `parallel_overhead` number.
    for (quads, units) in [(6usize, 4usize), (5, 6)] {
        for threads in [1usize, 2] {
            all.push(BenchCase {
                name: format!("mixed{quads}{units}_t{threads}"),
                command: Command::Opp,
                smoke: (quads, units) == (6, 4),
                threads,
                search_only: true,
                instance: mixed_overflow(quads, units),
            });
        }
    }

    if smoke {
        all.retain(|c| c.smoke);
    }
    all
}

/// Runs one case and packages the outcome as a [`SolveReport`].
pub fn run_case(case: &BenchCase) -> SolveReport {
    run_case_with(case, false)
}

/// Runs one case, optionally with per-phase profiling enabled.
///
/// Profiling adds clock reads around every propagation cascade; node counts
/// must be identical either way (the CI bench-smoke job asserts this).
pub fn run_case_with(case: &BenchCase, profile: bool) -> SolveReport {
    let base = if case.search_only {
        search_only()
    } else {
        SolverConfig::default()
    };
    let config = SolverConfig {
        threads: case.threads,
        profile,
        ..base
    };
    let started = Instant::now();
    let (outcome, decisions, stats) = match case.command {
        Command::Opp => {
            let (outcome, stats) = Opp::new(&case.instance)
                .with_config(config)
                .solve_with_stats();
            let label = match outcome {
                SolveOutcome::Feasible(_) => "feasible".to_string(),
                SolveOutcome::Infeasible(_) => "infeasible".to_string(),
                SolveOutcome::ResourceLimit(limit) => format!("{limit} reached"),
            };
            (label, 1, stats)
        }
        Command::Bmp => match Bmp::new(&case.instance).with_config(config).solve() {
            Some(result) => (
                format!("side {}", result.side),
                result.decisions,
                result.stats,
            ),
            None => ("unsolved".to_string(), 0, Default::default()),
        },
        Command::Spp => match Spp::new(&case.instance).with_config(config).solve() {
            Some(result) => (
                format!("makespan {}", result.makespan),
                result.decisions,
                result.stats,
            ),
            None => ("unsolved".to_string(), 0, Default::default()),
        },
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    let per_sec = |count: u64| per_second(count, wall_ms);
    SolveReport {
        command: case.command.name().to_string(),
        instance: case.name.clone(),
        outcome,
        threads: case.threads,
        decisions,
        wall_ms,
        nodes_per_sec: per_sec(stats.nodes),
        propagation_events_per_sec: per_sec(stats.propagation_events),
        stats,
        events: None,
        journal_dropped: None,
    }
}

/// A complete bench run: the document `recopack-bench` writes to `--out`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report label (`PR2`, a git ref, ...).
    pub label: String,
    /// Whether this was the smoke subset.
    pub smoke: bool,
    /// One entry per case, in suite order.
    pub cases: Vec<SolveReport>,
}

/// Whole-suite aggregates, written as the report's `totals` object so
/// run-over-run comparisons don't have to re-derive them from the per-case
/// reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteTotals {
    /// Number of cases in the report.
    pub cases: usize,
    /// Search nodes summed over all cases.
    pub nodes: u64,
    /// Propagation events summed over all cases.
    pub propagation_events: u64,
    /// Pruned subtrees summed over all cases and rules.
    pub conflicts: u64,
    /// Wall-clock time summed over all cases, in milliseconds.
    pub wall_ms: f64,
    /// Aggregate throughput: total nodes over total wall time.
    pub nodes_per_sec: Option<f64>,
}

/// A `<family>_t1` / `<family>_t2` case pair of one report: the same
/// pinned instance at one and two threads, whose wall-clock ratio is the
/// scheduler's parallel overhead (or speedup, below 1) on that tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ParityPair {
    /// The shared name prefix (`quad5`, `mixed64`, ...).
    pub family: String,
    /// Wall time of the `threads = 1` run, milliseconds.
    pub t1_wall_ms: f64,
    /// Wall time of the `threads = 2` run, milliseconds.
    pub t2_wall_ms: f64,
}

impl ParityPair {
    /// `t2 / t1` wall-clock ratio; `None` when the t1 wall rounded to
    /// zero. `1.0` is perfect parity, below 1 is a parallel speedup.
    pub fn overhead(&self) -> Option<f64> {
        (self.t1_wall_ms > 0.0).then(|| self.t2_wall_ms / self.t1_wall_ms)
    }
}

impl BenchReport {
    /// Aggregates the per-case stats into [`SuiteTotals`].
    pub fn totals(&self) -> SuiteTotals {
        let nodes = self.cases.iter().map(|c| c.stats.nodes).sum();
        let wall_ms: f64 = self.cases.iter().map(|c| c.wall_ms).sum();
        SuiteTotals {
            cases: self.cases.len(),
            nodes,
            propagation_events: self.cases.iter().map(|c| c.stats.propagation_events).sum(),
            conflicts: self.cases.iter().map(|c| c.stats.conflicts()).sum(),
            wall_ms,
            nodes_per_sec: (wall_ms > 0.0).then(|| nodes as f64 / (wall_ms / 1000.0)),
        }
    }

    /// Every `<family>_t1` / `<family>_t2` pair present in this report, in
    /// case order. Pairs are joined on the name prefix; a family with only
    /// one half present (e.g. under `--only`) is skipped.
    pub fn parity_pairs(&self) -> Vec<ParityPair> {
        let wall_of = |name: &str| {
            self.cases
                .iter()
                .find(|c| c.instance == name)
                .map(|c| c.wall_ms)
        };
        self.cases
            .iter()
            .filter_map(|case| {
                let family = case.instance.strip_suffix("_t1")?;
                Some(ParityPair {
                    family: family.to_string(),
                    t1_wall_ms: case.wall_ms,
                    t2_wall_ms: wall_of(&format!("{family}_t2"))?,
                })
            })
            .collect()
    }

    /// Serializes the report as a versioned JSON document.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"schema_version\":{TELEMETRY_SCHEMA_VERSION}");
        out.push_str(",\"label\":");
        recopack_core::telemetry::push_json_str(&mut out, &self.label);
        let totals = self.totals();
        let _ = write!(
            out,
            ",\"smoke\":{},\"totals\":{{\"cases\":{},\"nodes\":{},\
             \"propagation_events\":{},\"conflicts\":{},\"wall_ms\":{:.3}",
            self.smoke,
            totals.cases,
            totals.nodes,
            totals.propagation_events,
            totals.conflicts,
            totals.wall_ms
        );
        match totals.nodes_per_sec {
            Some(rate) => {
                let _ = write!(out, ",\"nodes_per_sec\":{rate:.1}");
            }
            None => out.push_str(",\"nodes_per_sec\":null"),
        }
        // Per-family t2/t1 wall ratios — the record of what parallel
        // search costs (or saves) on each pinned pair.
        out.push_str(",\"parallel_overhead\":{");
        for (i, pair) in self.parity_pairs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            recopack_core::telemetry::push_json_str(&mut out, &pair.family);
            match pair.overhead() {
                Some(ratio) => {
                    let _ = write!(out, ":{ratio:.3}");
                }
                None => out.push_str(":null"),
            }
        }
        out.push_str("}}");
        out.push_str(",\"cases\":[");
        for (i, case) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&case.to_json());
        }
        out.push_str("]}\n");
        out
    }
}

/// Options for [`run_suite_with`].
#[derive(Debug, Clone, Default)]
pub struct SuiteOptions {
    /// Run the CI smoke subset instead of the full suite.
    pub smoke: bool,
    /// Report label.
    pub label: String,
    /// Collect per-phase wall times (see [`run_case_with`]).
    pub profile: bool,
    /// When set, run only the case with this exact name.
    pub only: Option<String>,
}

/// Runs the pinned suite.
pub fn run_suite(smoke: bool, label: &str) -> BenchReport {
    run_suite_with(&SuiteOptions {
        smoke,
        label: label.to_string(),
        ..Default::default()
    })
}

/// Runs the pinned suite with filtering and profiling options.
pub fn run_suite_with(options: &SuiteOptions) -> BenchReport {
    let mut selected = cases(options.smoke);
    if let Some(only) = &options.only {
        selected.retain(|c| &c.name == only);
    }
    BenchReport {
        label: options.label.clone(),
        smoke: options.smoke,
        cases: selected
            .iter()
            .map(|c| run_case_with(c, options.profile))
            .collect(),
    }
}

/// Outcome of the node-count regression gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateOutcome {
    /// One human-readable comparison line per matched case.
    pub lines: Vec<String>,
    /// Cases whose node count differs from the baseline.
    pub regressions: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `current` against a parsed baseline report, flagging every case
/// whose node count differs from the baseline's.
///
/// The gate demands *exact* equality: the search is deterministic, so any
/// node-count drift — shrinkage included — is a behavior change that must
/// be acknowledged by refreshing the baseline, not absorbed as noise.
///
/// Cases are joined on `(instance, command, threads)`. Cases present only
/// on one side are reported but never fail the gate (suites are allowed to
/// grow and shrink across PRs); wall time is informational only.
pub fn check_against_baseline(current: &BenchReport, baseline: &Json) -> GateOutcome {
    let empty = Vec::new();
    let baseline_cases = baseline
        .get("cases")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    let baseline_nodes = |case: &SolveReport| -> Option<u64> {
        baseline_cases
            .iter()
            .find(|b| {
                b.get("instance").and_then(Json::as_str) == Some(case.instance.as_str())
                    && b.get("command").and_then(Json::as_str) == Some(case.command.as_str())
                    && b.get("threads").and_then(Json::as_u64) == Some(case.threads as u64)
            })
            .and_then(|b| b.get("stats")?.get("nodes")?.as_u64())
    };
    let mut outcome = GateOutcome {
        lines: Vec::new(),
        regressions: Vec::new(),
    };
    for case in &current.cases {
        let nodes = case.stats.nodes;
        match baseline_nodes(case) {
            None => outcome.lines.push(format!(
                "{} (t{}): {} nodes [new case, not gated]",
                case.instance, case.threads, nodes
            )),
            Some(base) => {
                let regressed = nodes != base;
                outcome.lines.push(format!(
                    "{} (t{}): {} nodes vs baseline {} [{}]",
                    case.instance,
                    case.threads,
                    nodes,
                    base,
                    if regressed { "REGRESSED" } else { "ok" }
                ));
                if regressed {
                    outcome.regressions.push(format!(
                        "{} (t{}): {} nodes differs from baseline {base} (exact gate)",
                        case.instance, case.threads, nodes
                    ));
                }
            }
        }
    }
    outcome
}

/// The wall-clock parity gate: over all `_t1`/`_t2` pairs of `current`,
/// the two-thread walls summed must stay within `max_percent` of the
/// one-thread walls summed (150 = "t2 may cost at most 1.5× t1").
///
/// This is the regression class PR 6 fixed — the eager frontier split ran
/// the quad family 3–5× *slower* at two threads — kept from silently
/// returning. The gate is deliberately generous and aggregated across the
/// families: individual pinned cases run sub-millisecond, where a single
/// scheduler hiccup flips per-case ratios; the suite-wide sum is stable.
/// Wall time is noisy by nature, so this complements (never replaces) the
/// exact node-count gate of [`check_against_baseline`].
pub fn check_parallel_parity(current: &BenchReport, max_percent: u64) -> GateOutcome {
    let pairs = current.parity_pairs();
    let mut outcome = GateOutcome {
        lines: Vec::new(),
        regressions: Vec::new(),
    };
    for pair in &pairs {
        outcome.lines.push(match pair.overhead() {
            Some(ratio) => format!(
                "{}: t1 {:.2} ms, t2 {:.2} ms (ratio {:.2})",
                pair.family, pair.t1_wall_ms, pair.t2_wall_ms, ratio
            ),
            None => format!("{}: t1 wall rounded to zero, skipped", pair.family),
        });
    }
    let t1: f64 = pairs.iter().map(|p| p.t1_wall_ms).sum();
    let t2: f64 = pairs.iter().map(|p| p.t2_wall_ms).sum();
    if t1 > 0.0 && t2 * 100.0 > t1 * max_percent as f64 {
        outcome.regressions.push(format!(
            "parallel overhead: t2 walls sum to {t2:.2} ms vs {t1:.2} ms at t1 \
             ({:.2}x, limit {:.2}x)",
            t2 / t1,
            max_percent as f64 / 100.0
        ));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_a_subset_with_unique_names() {
        let full = cases(false);
        let smoke = cases(true);
        assert!(smoke.len() < full.len());
        assert!(!smoke.is_empty());
        let mut keys: Vec<(String, usize)> =
            full.iter().map(|c| (c.name.clone(), c.threads)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), full.len(), "case keys must be unique");
    }

    #[test]
    fn infeasible_family_is_thread_invariant_and_repeatable() {
        let all = cases(false);
        let quad5: Vec<&BenchCase> = all.iter().filter(|c| c.name.starts_with("quad5")).collect();
        assert_eq!(quad5.len(), 2);
        let reports: Vec<SolveReport> = quad5.iter().map(|c| run_case(c)).collect();
        assert!(reports.iter().all(|r| r.outcome == "infeasible"));
        assert!(
            reports[0].stats.nodes > 0,
            "the family must actually search"
        );
        assert_eq!(
            reports[0].stats, reports[1].stats,
            "threads 1 and 2 must explore the same tree"
        );
        let again = run_case(quad5[1]);
        assert_eq!(again.stats, reports[1].stats, "reruns must be identical");
    }

    fn stub_case(name: &str, threads: usize, wall_ms: f64) -> SolveReport {
        SolveReport {
            command: "opp".into(),
            instance: name.into(),
            outcome: "infeasible".into(),
            threads,
            decisions: 1,
            wall_ms,
            stats: Default::default(),
            events: None,
            journal_dropped: None,
            nodes_per_sec: None,
            propagation_events_per_sec: None,
        }
    }

    fn stub_report(cases: Vec<SolveReport>) -> BenchReport {
        BenchReport {
            label: "test".into(),
            smoke: false,
            cases,
        }
    }

    #[test]
    fn parity_pairs_join_on_the_family_prefix() {
        let report = stub_report(vec![
            stub_case("quad5_t1", 1, 2.0),
            stub_case("quad5_t2", 2, 3.0),
            stub_case("lonely_t1", 1, 1.0),
            stub_case("de_opp_32x6", 1, 1.0),
        ]);
        let pairs = report.parity_pairs();
        assert_eq!(pairs.len(), 1, "unpaired and unthreaded cases skipped");
        assert_eq!(pairs[0].family, "quad5");
        assert_eq!(pairs[0].overhead(), Some(1.5));
    }

    #[test]
    fn parity_gate_sums_over_pairs() {
        // Individually quad5 is 3x over, but the aggregate (5 ms vs 11 ms)
        // is fine — the gate judges the sum, not sub-millisecond blips.
        let good = stub_report(vec![
            stub_case("quad5_t1", 1, 1.0),
            stub_case("quad5_t2", 2, 3.0),
            stub_case("mixed64_t1", 1, 10.0),
            stub_case("mixed64_t2", 2, 2.0),
        ]);
        assert!(check_parallel_parity(&good, 150).passed());

        let bad = stub_report(vec![
            stub_case("quad5_t1", 1, 1.0),
            stub_case("quad5_t2", 2, 4.0),
        ]);
        let outcome = check_parallel_parity(&bad, 150);
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions.len(), 1);

        // No pairs (e.g. an `--only` selection): trivially green.
        let none = stub_report(vec![stub_case("de_opp_32x6", 1, 1.0)]);
        assert!(check_parallel_parity(&none, 150).passed());
    }

    #[test]
    fn suite_has_the_deep_stealing_family() {
        let all = cases(false);
        for name in ["mixed64_t1", "mixed64_t2", "mixed56_t1", "mixed56_t2"] {
            assert!(
                all.iter().any(|c| c.name == name),
                "missing deep case {name}"
            );
        }
        let smoke = cases(true);
        assert!(
            smoke.iter().any(|c| c.name.starts_with("mixed64")),
            "smoke subset must exercise a stealing-scale pair"
        );
    }

    #[test]
    fn totals_json_records_parallel_overhead() {
        let report = stub_report(vec![
            stub_case("quad5_t1", 1, 2.0),
            stub_case("quad5_t2", 2, 1.0),
        ]);
        let doc = Json::parse(&report.to_json()).expect("valid JSON");
        let overhead = doc
            .get("totals")
            .and_then(|t| t.get("parallel_overhead"))
            .expect("totals.parallel_overhead present");
        assert_eq!(
            overhead.get("quad5").and_then(Json::as_f64),
            Some(0.5),
            "ratio = t2 wall / t1 wall"
        );
    }

    #[test]
    fn reports_serialize_and_reparse() {
        let case = &cases(true)[0];
        let report = BenchReport {
            label: "test".into(),
            smoke: true,
            cases: vec![run_case(case)],
        };
        let doc = Json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(u64::from(TELEMETRY_SCHEMA_VERSION))
        );
        let cases_json = doc.get("cases").and_then(Json::as_array).expect("array");
        assert_eq!(
            cases_json[0].get("instance").and_then(Json::as_str),
            Some(case.name.as_str())
        );
        // The suite totals ride in the document and agree with the cases.
        let totals = doc.get("totals").expect("totals object");
        assert_eq!(totals.get("cases").and_then(Json::as_u64), Some(1));
        assert_eq!(
            totals.get("nodes").and_then(Json::as_u64),
            Some(report.cases[0].stats.nodes)
        );
        assert!(totals.get("wall_ms").and_then(Json::as_f64).is_some());
        assert!(totals.get("nodes_per_sec").is_some());
    }

    #[test]
    fn gate_is_exact_and_two_sided() {
        let mut report = BenchReport {
            label: "cur".into(),
            smoke: true,
            cases: vec![run_case(&cases(false)[0])],
        };
        let baseline = Json::parse(&format!(
            r#"{{"cases":[{{"instance":"{}","command":"{}","threads":{},"stats":{{"nodes":100}}}}]}}"#,
            report.cases[0].instance, report.cases[0].command, report.cases[0].threads
        ))
        .expect("valid");
        report.cases[0].stats.nodes = 100;
        assert!(check_against_baseline(&report, &baseline).passed());
        // One node more *or less* than the baseline must fail.
        report.cases[0].stats.nodes = 101;
        assert!(!check_against_baseline(&report, &baseline).passed());
        report.cases[0].stats.nodes = 99;
        let gate = check_against_baseline(&report, &baseline);
        assert!(!gate.passed());
        assert!(
            gate.regressions[0].contains("exact gate"),
            "{:?}",
            gate.regressions
        );
        // Unknown cases are reported but never gate.
        report.cases[0].instance = "brand_new".into();
        let gate = check_against_baseline(&report, &baseline);
        assert!(gate.passed());
        assert!(gate.lines[0].contains("not gated"), "{:?}", gate.lines);
    }

    #[test]
    fn profiled_run_matches_unprofiled_node_counts() {
        let case = cases(false)
            .into_iter()
            .find(|c| c.name == "quad5_t1")
            .expect("pinned case");
        let plain = run_case_with(&case, false);
        let profiled = run_case_with(&case, true);
        assert!(plain.stats.nodes > 0);
        assert_eq!(plain.stats.nodes, profiled.stats.nodes);
        assert_eq!(plain.stats.conflicts(), profiled.stats.conflicts());
        assert_eq!(plain.outcome, profiled.outcome);
    }

    #[test]
    fn sampling_profiler_leaves_node_counts_bit_exact() {
        let case = cases(false)
            .into_iter()
            .find(|c| c.name == "quad5_t1")
            .expect("pinned case");
        let plain = run_case_with(&case, false);
        // Beacons are always on; this adds the 97 Hz observer and demands
        // the exact determinism the `--check` gate relies on.
        let sampler = recopack_core::Sampler::start(97);
        let sampled = run_case_with(&case, false);
        let profile = sampler.stop();
        assert!(plain.stats.nodes > 0);
        assert_eq!(
            plain.stats.nodes, sampled.stats.nodes,
            "sampling must not perturb the search"
        );
        assert_eq!(plain.stats.conflicts(), sampled.stats.conflicts());
        assert_eq!(plain.outcome, sampled.outcome);
        assert_eq!(profile.hz, 97);
        // Whether any tick landed inside this sub-second run is timing
        // luck, but every captured stack must be well-formed.
        for (stack, weight) in &profile.stacks {
            assert!(stack.starts_with("worker:"), "{stack}");
            assert!(*weight > 0);
        }
    }

    #[test]
    fn suite_options_filter_to_a_single_case() {
        let report = run_suite_with(&SuiteOptions {
            smoke: false,
            label: "filtered".into(),
            profile: false,
            only: Some("de_opp_32x5_refuted".into()),
        });
        assert_eq!(report.cases.len(), 1);
        assert_eq!(report.cases[0].instance, "de_opp_32x5_refuted");
    }
}
