//! The solver workloads: `paper`, `decide_mix` and `search_proof`.
//!
//! Each workload draws an endless seeded stream of distinct jobs, solves
//! them back to back in stream order until the measured time is up, and
//! checks every answer with the benchmark's own checker as it arrives.
//! Drawing and checking are kept off the phase clock. Set-up draws a
//! separate warm-up stream and solves it, so the warm-up never changes
//! what is measured. The traced run replays a fixed prefix of the measured
//! stream: once plain, once with spans around each call into a layer, and
//! once with the solver's phase profiling switched on.

use std::time::{Duration, Instant};

use recopack_core::{
    pareto_front_with_stats, Bmp, InfeasibilityProof, Opp, SolveOutcome, SolverConfig, SolverStats,
};
use recopack_heur::{find_feasible, HeuristicConfig};
use recopack_model::{benchmarks, Chip, Instance, Placement};

use crate::check::check_placement;
use crate::gen::{self, Case, Rng, Truth};
use crate::stats::{median, Windowed};
use crate::trace::Trace;
use crate::{Options, Report, Values};

/// Search nodes a `decide_mix` instance may use (a few milliseconds of
/// search). A node budget, unlike a wall-clock one, stops every run at the
/// same node on every host, so verdicts and node counts repeat exactly.
const DECIDE_NODE_LIMIT: u64 = 2_000;
/// Search nodes a `search_proof` instance may use.
const PROOF_NODE_LIMIT: u64 = 2_000_000;
/// Worker threads the traced `search_proof` replay compares with one.
/// The measured phase runs one thread: on a shared 2-CPU host, two-thread
/// runs of the same code spread twice as wide (see README.md).
const PROOF_THREADS: usize = 2;

/// Span names: the public entry point each span wraps.
const BOUNDS: &str = "recopack_bounds::refute";
const HEUR: &str = "recopack_heur::find_feasible";
const SEARCH: &str = "recopack_core::Opp::solve_with_stats";
/// The span around all the work of one job.
const INSTANCE: &str = "instance";

/// The benchmark's verdict on one answer.
struct Checked {
    /// The solver reached a definite answer within its limit.
    decided: bool,
    /// Why the answer is wrong, if it is.
    wrong: Option<String>,
}

impl Checked {
    fn right(decided: bool) -> Self {
        Self {
            decided,
            wrong: None,
        }
    }

    fn wrong(why: String) -> Self {
        Self {
            decided: true,
            wrong: Some(why),
        }
    }
}

fn origins(placement: &Placement) -> Vec<[u64; 3]> {
    placement.boxes().iter().map(|b| b.origin).collect()
}

/// The measured stream of workload `id` under `seed`, and its warm-up
/// stream. The warm-up is the same for every seed, so set-up time measures
/// the program, not the seed's luck.
fn streams(seed: u64, id: u64) -> (Rng, Rng) {
    (Rng::new(seed, 2 * id), Rng::new(0, 2 * id + 1))
}

/// Runs `setup` `repeats` times; returns the median time in seconds.
fn timed_setup(repeats: usize, mut setup: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let started = Instant::now();
            setup();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Solves jobs drawn from `next` back to back until the measured seconds
/// of the phase have passed, checks each answer as it arrives, and reports
/// the end-to-end metrics, reading the latency tail at `wanted_tail`.
/// Drawing and checking are kept off the phase clock, so throughput counts
/// the solver alone.
fn end_to_end<J, A>(
    options: &Options,
    setup_s: f64,
    wanted_tail: f64,
    mut next: impl FnMut() -> J,
    mut solve: impl FnMut(&J) -> A,
    mut check: impl FnMut(&J, &A) -> Checked,
) -> Report {
    let mut latency_ms = Windowed::new(options.seconds, options.seed);
    let mut decided = 0u64;
    let mut wrong = Vec::new();
    let phase = Instant::now();
    let mut off_clock = Duration::ZERO;
    while (phase.elapsed() - off_clock).as_secs_f64() < options.seconds {
        let drawing = Instant::now();
        let job = next();
        let started = Instant::now();
        off_clock += started - drawing;
        let answer = std::hint::black_box(solve(&job));
        let solved = Instant::now();
        latency_ms.push(
            (solved - phase - off_clock).as_secs_f64(),
            (solved - started).as_secs_f64() * 1e3,
        );
        let checked = check(&job, &answer);
        decided += u64::from(checked.decided);
        wrong.extend(checked.wrong);
        off_clock += solved.elapsed();
    }

    let figures = latency_ms.figures(wanted_tail);
    let mut report = Report::new(figures.answers);
    report.wrong = wrong;
    report.values = Values::from([
        ("setup_s", setup_s),
        ("latency_p50_ms", figures.p50),
        ("latency_tail_ms", figures.tail),
        ("throughput_per_s", figures.rate),
        (
            "decided_share",
            decided as f64 / figures.answers.max(1) as f64,
        ),
    ]);
    report.notes.push(figures.to_string());
    report
}

/// Search-layer counters of merged statistics; `search_ns` is the time
/// spent in the search layer.
fn search_counts(stats: &SolverStats, search_ns: f64) -> Values {
    Values::from([
        ("core.search.nodes", stats.nodes as f64),
        (
            "core.search.ns_per_node",
            search_ns / stats.nodes.max(1) as f64,
        ),
        (
            "core.search.propagation_events",
            stats.propagation_events as f64,
        ),
        (
            "core.search.leaf_reject_share",
            stats.leaf_rejections as f64 / stats.leaves.max(1) as f64,
        ),
        ("core.search.conflicts.c2", stats.c2_conflicts as f64),
        ("core.search.conflicts.c3", stats.c3_conflicts as f64),
        ("core.search.conflicts.c4", stats.c4_conflicts as f64),
        (
            "core.search.conflicts.orientation",
            stats.orientation_conflicts as f64,
        ),
    ])
}

/// Shares of a profiled pass's `wall_ns` spent in each search phase the
/// solver's profiling times; `other` is what none of them covers.
fn phase_shares(profile: &SolverStats, wall_ns: f64) -> Values {
    let share = |ns: u64| ns as f64 / wall_ns.max(1.0);
    let [c2, c3, c4, orientation] = profile.prune_ns;
    let timed = profile.propagate_ns + profile.realize_ns + c2 + c3 + c4 + orientation;
    Values::from([
        ("core.search.propagate_share", share(profile.propagate_ns)),
        ("core.search.realize_share", share(profile.realize_ns)),
        ("core.search.other_share", 1.0 - share(timed)),
        ("core.search.prune_share.c2", share(c2)),
        ("core.search.prune_share.c3", share(c3)),
        ("core.search.prune_share.c4", share(c4)),
        ("core.search.prune_share.orientation", share(orientation)),
    ])
}

/// Wall time of solving every job of `prefix` once.
fn timed_pass<J>(prefix: &[J], mut solve: impl FnMut(&J)) -> f64 {
    let started = Instant::now();
    for job in prefix {
        solve(job);
    }
    started.elapsed().as_nanos() as f64
}

/// Nanoseconds `f` takes.
fn timed(f: impl FnOnce()) -> u64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as u64
}

/// Total duration of the spans named `name`.
fn span_ns(trace: &Trace, name: &str) -> u64 {
    trace
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .sum()
}

// ---------------------------------------------------------------- paper

/// One experiment of the paper, with the answer its table or figure pins.
#[derive(Debug, Clone, Copy)]
enum Experiment {
    /// Table 1: the smallest square chip for the DE benchmark at a horizon,
    /// `None` when no chip meets it.
    Table1 { horizon: u64, side: Option<u64> },
    /// A Pareto front of (chip side, makespan) points.
    Front {
        figure: Figure,
        points: &'static [(u64, u64)],
    },
}

/// The figures and tables that pin a Pareto front.
#[derive(Debug, Clone, Copy)]
enum Figure {
    /// Table 2: the video codec.
    Table2,
    /// Fig. 7, solid: DE with its precedence constraints.
    Fig7Solid,
    /// Fig. 7, dashed: DE without them.
    Fig7Dashed,
}

/// Table 1 rows, Table 2, and the Fig. 7 solid and dashed fronts, as
/// pinned in `tests/paper_experiments.rs`. The T = 5 row (§5.1: no
/// schedule beats the critical path of 6) makes seven experiments, so the
/// median latency falls inside one experiment's samples instead of on the
/// gap between two.
const EXPERIMENTS: [Experiment; 7] = [
    Experiment::Table1 {
        horizon: 5,
        side: None,
    },
    Experiment::Table1 {
        horizon: 6,
        side: Some(32),
    },
    Experiment::Table1 {
        horizon: 13,
        side: Some(17),
    },
    Experiment::Table1 {
        horizon: 14,
        side: Some(16),
    },
    Experiment::Front {
        figure: Figure::Table2,
        points: &[(64, 59)],
    },
    Experiment::Front {
        figure: Figure::Fig7Solid,
        points: &[(16, 14), (17, 13), (32, 6)],
    },
    Experiment::Front {
        figure: Figure::Fig7Dashed,
        points: &[(16, 13), (17, 12), (32, 4), (48, 2)],
    },
];

struct PaperJob {
    experiment: Experiment,
    /// The benchmark instance with tasks reordered and renamed by the seed.
    instance: Instance,
}

/// The experiments in turn, each in a fresh seeded task order.
fn paper_stream(mut rng: Rng) -> impl FnMut() -> PaperJob {
    let mut drawn = 0;
    move || {
        let experiment = EXPERIMENTS[drawn % EXPERIMENTS.len()];
        drawn += 1;
        let instance = match experiment {
            Experiment::Table1 { horizon, .. } => {
                gen::relabel(&mut rng, &benchmarks::de(Chip::square(1), horizon))
            }
            Experiment::Front { figure, .. } => match figure {
                Figure::Table2 => {
                    gen::relabel(&mut rng, &benchmarks::video_codec(Chip::square(1), 1))
                }
                Figure::Fig7Solid => gen::relabel(&mut rng, &benchmarks::de(Chip::square(1), 1)),
                Figure::Fig7Dashed => {
                    gen::relabel(&mut rng, &benchmarks::de(Chip::square(1), 1)).without_precedence()
                }
            },
        };
        PaperJob {
            experiment,
            instance,
        }
    }
}

/// What an optimizer returned: `(side, makespan, placement)` points (one
/// point for a Table 1 row, none when no chip meets its horizon), the
/// merged statistics, and OPP decisions.
type PaperAnswer = (Vec<(u64, u64, Placement)>, SolverStats, u32);

fn solve_paper(job: &PaperJob, config: &SolverConfig) -> PaperAnswer {
    match job.experiment {
        Experiment::Table1 { horizon, .. } => {
            match Bmp::new(&job.instance).with_config(config.clone()).solve() {
                Some(r) => (vec![(r.side, horizon, r.placement)], r.stats, r.decisions),
                None => (Vec::new(), SolverStats::default(), 0),
            }
        }
        Experiment::Front { .. } => {
            let (front, stats, decisions) = pareto_front_with_stats(&job.instance, config)
                .expect("the paper experiments run without limits");
            let points = front
                .into_iter()
                .map(|p| (p.side, p.makespan, p.placement))
                .collect();
            (points, stats, decisions)
        }
    }
}

fn check_paper(job: &PaperJob, (points, _, _): &PaperAnswer) -> Checked {
    let got: Vec<(u64, u64)> = points.iter().map(|&(s, t, _)| (s, t)).collect();
    let pinned: Vec<(u64, u64)> = match job.experiment {
        Experiment::Table1 { horizon, side } => side.map(|s| (s, horizon)).into_iter().collect(),
        Experiment::Front { points, .. } => points.to_vec(),
    };
    if got != pinned {
        return Checked::wrong(format!(
            "{:?}: got {got:?}, pinned {pinned:?}",
            job.experiment
        ));
    }
    for (side, makespan, placement) in points {
        let container = job
            .instance
            .clone()
            .with_chip(Chip::square(*side))
            .with_horizon(*makespan);
        if let Err(violation) = check_placement(&container, &origins(placement)) {
            return Checked::wrong(format!("{:?}: {violation:?}", job.experiment));
        }
    }
    Checked::right(true)
}

/// Paper jobs per measured second in the traced replay.
const PAPER_TRACE_PER_SECOND: f64 = 1.0;

/// `paper`: every pinned experiment of the paper through the default
/// pipeline, in seeded task orders.
pub fn paper(options: &Options) -> Report {
    let config = SolverConfig::default();
    let (measured, warm) = streams(options.seed, 0);
    let setup_s = timed_setup(options.setup_repeats(), || {
        let mut next = paper_stream(warm.clone());
        for _ in 0..EXPERIMENTS.len() {
            std::hint::black_box(solve_paper(&next(), &config));
        }
    });
    if options.trace {
        return paper_traced(options, paper_stream(measured));
    }
    end_to_end(
        options,
        setup_s,
        90.0,
        paper_stream(measured),
        |job| solve_paper(job, &config),
        check_paper,
    )
}

/// Replays a prefix of the stream. Each job runs plain and inside spans,
/// in alternating order so that neither run always meets warm caches or a
/// drifting host first; a profiled pass follows.
fn paper_traced(options: &Options, mut next: impl FnMut() -> PaperJob) -> Report {
    let prefix: Vec<PaperJob> = (0..options.trace_jobs(PAPER_TRACE_PER_SECOND))
        .map(|_| next())
        .collect();
    let config = SolverConfig::default();
    let mut trace = Trace::new(Instant::now());
    let mut report = Report::new(prefix.len() as u64);
    let mut plain_ns = 0;
    for (i, job) in prefix.iter().enumerate() {
        let plain = || {
            std::hint::black_box(solve_paper(job, &config));
        };
        if i % 2 == 0 {
            plain_ns += timed(plain);
        }
        let name = match job.experiment {
            Experiment::Table1 { .. } => "recopack_core::Bmp::solve",
            Experiment::Front { .. } => "recopack_core::pareto_front_with_stats",
        };
        trace.enter(INSTANCE, 0, i as u64);
        let answer = trace.span(name, 0, i as u64, || solve_paper(job, &config));
        trace.exit();
        report.wrong.extend(check_paper(job, &answer).wrong);
        if i % 2 == 1 {
            plain_ns += timed(plain);
        }
    }

    let profiled = SolverConfig {
        profile: true,
        ..SolverConfig::default()
    };
    let mut stats = SolverStats::default();
    let mut decisions = 0u64;
    let profiled_ns = timed_pass(&prefix, |job| {
        let (_, s, d) = solve_paper(job, &profiled);
        stats.accumulate(&s);
        decisions += u64::from(d);
    });

    let traced_ns = span_ns(&trace, INSTANCE) as f64;
    let opt_ns = traced_ns - trace.self_by_name()[INSTANCE] as f64;
    let [c2, c3, c4, orientation] = stats.prune_ns;
    let search_ns = (stats.propagate_ns + stats.realize_ns + c2 + c3 + c4 + orientation) as f64;
    report.values = search_counts(&stats, search_ns);
    report.values.extend(phase_shares(&stats, profiled_ns));
    report.values.extend([
        ("bounds.self_share", stats.bounds_ns as f64 / profiled_ns),
        ("core.search.self_share", search_ns / profiled_ns),
        ("core.opt.decisions", decisions as f64),
        (
            "core.opt.ms_per_decision",
            opt_ns / 1e6 / decisions.max(1) as f64,
        ),
        (
            "core.opt.unattributed_share",
            1.0 - stats.profiled_ns() as f64 / profiled_ns,
        ),
        ("trace.overhead_share", traced_ns / plain_ns as f64 - 1.0),
        ("trace.attributed_share", opt_ns / traced_ns),
    ]);
    report.notes.push(format!("traced jobs {}", prefix.len()));
    report.trace = Some(trace);
    report
}

// ----------------------------------------------------------- decide_mix

/// Volume-tight random instances, instances feasible by construction, and
/// module-library instances in turn, with 8–12 tasks.
fn decide_stream(mut rng: Rng) -> impl FnMut() -> Case {
    let mut drawn = 0;
    move || {
        let n = 8 + (drawn / 3) % 5;
        let case = match drawn % 3 {
            0 => gen::volume_tight(&mut rng, n),
            1 => gen::witnessed(&mut rng, n, 4, 4),
            _ => gen::library_tight(&mut rng, n),
        };
        drawn += 1;
        case
    }
}

fn decide_config() -> SolverConfig {
    SolverConfig {
        node_limit: Some(DECIDE_NODE_LIMIT),
        ..SolverConfig::default()
    }
}

/// Checks a decision against the case's known answer and, for a packing,
/// against the benchmark's checker.
fn check_decision(case: &Case, outcome: &SolveOutcome) -> Checked {
    match outcome {
        SolveOutcome::Feasible(placement) => {
            if case.truth == Truth::Infeasible {
                return Checked::wrong("feasible, but infeasible by construction".into());
            }
            match check_placement(&case.instance, &origins(placement)) {
                Ok(()) => Checked::right(true),
                Err(violation) => Checked::wrong(format!("bad packing: {violation:?}")),
            }
        }
        SolveOutcome::Infeasible(_) if case.truth == Truth::Feasible => {
            let witness = case.witness.as_deref().unwrap_or_default();
            Checked::wrong(format!(
                "infeasible, but the generator's witness packing checks {:?}",
                check_placement(&case.instance, witness)
            ))
        }
        SolveOutcome::Infeasible(_) => Checked::right(true),
        SolveOutcome::ResourceLimit(_) => Checked::right(false),
    }
}

/// `decide_mix` instances per measured second in the traced replay.
const DECIDE_TRACE_PER_SECOND: f64 = 400.0;

/// `decide_mix`: a seeded stream of OPP decisions through the default
/// pipeline at one thread.
pub fn decide_mix(options: &Options) -> Report {
    let config = decide_config();
    let (measured, warm) = streams(options.seed, 1);
    let setup_s = timed_setup(options.setup_repeats(), || {
        let mut next = decide_stream(warm.clone());
        for _ in 0..options.warm_jobs(1000) {
            let case = next();
            std::hint::black_box(Opp::new(&case.instance).with_config(config.clone()).solve());
        }
    });
    if options.trace {
        return decide_traced(options, decide_stream(measured));
    }
    end_to_end(
        options,
        setup_s,
        90.0,
        decide_stream(measured),
        |case| Opp::new(&case.instance).with_config(config.clone()).solve(),
        check_decision,
    )
}

/// Replays a prefix of the stream with one span per pipeline stage, in the
/// order `Opp::solve_with_stats` runs them: bounds, heuristics, then the
/// search alone. Each instance also runs plain, before or after the traced
/// run in alternation; a profiled pass over the searched instances follows.
fn decide_traced(options: &Options, mut next: impl FnMut() -> Case) -> Report {
    let prefix: Vec<Case> = (0..options.trace_jobs(DECIDE_TRACE_PER_SECOND))
        .map(|_| next())
        .collect();
    let config = decide_config();
    let search_config = SolverConfig {
        use_bounds: false,
        use_heuristics: false,
        ..decide_config()
    };
    let mut trace = Trace::new(Instant::now());
    let mut report = Report::new(prefix.len() as u64);
    let (mut refuted, mut heuristic_hits) = (0u64, 0u64);
    let mut stats = SolverStats::default();
    let mut searched = Vec::new();
    let mut early_share = Vec::with_capacity(prefix.len());
    let mut plain_ns = 0;
    for (i, case) in prefix.iter().enumerate() {
        let plain = || {
            std::hint::black_box(Opp::new(&case.instance).with_config(config.clone()).solve());
        };
        if i % 2 == 0 {
            plain_ns += timed(plain);
        }
        let job = i as u64;
        let instance_span = trace.spans().len();
        trace.enter(INSTANCE, 0, job);
        let outcome = if let Some(refutation) =
            trace.span(BOUNDS, 0, job, || recopack_bounds::refute(&case.instance))
        {
            refuted += 1;
            SolveOutcome::Infeasible(InfeasibilityProof::Bound(refutation))
        } else if let Some(placement) = trace.span(HEUR, 0, job, || {
            find_feasible(&case.instance, &HeuristicConfig::default())
        }) {
            heuristic_hits += 1;
            SolveOutcome::Feasible(placement)
        } else {
            searched.push(case);
            let (outcome, s) = trace.span(SEARCH, 0, job, || {
                Opp::new(&case.instance)
                    .with_config(search_config.clone())
                    .solve_with_stats()
            });
            stats.accumulate(&s);
            outcome
        };
        trace.exit();
        let spans = &trace.spans()[instance_span..];
        let early: u64 = spans
            .iter()
            .filter(|s| s.name == BOUNDS || s.name == HEUR)
            .map(|s| s.dur_ns)
            .sum();
        early_share.push(early as f64 / spans[0].dur_ns.max(1) as f64);
        report.wrong.extend(check_decision(case, &outcome).wrong);
        if i % 2 == 1 {
            plain_ns += timed(plain);
        }
    }

    let profiled = SolverConfig {
        profile: true,
        ..search_config
    };
    let mut profile = SolverStats::default();
    let profiled_ns = timed_pass(&searched, |case| {
        let (_, s) = Opp::new(&case.instance)
            .with_config(profiled.clone())
            .solve_with_stats();
        profile.accumulate(&s);
    });

    let traced_ns = span_ns(&trace, INSTANCE) as f64;
    let calls = trace.calls_by_name();
    let own = trace.self_by_name();
    let layer = |name: &str| calls.get(name).copied().unwrap_or((0, 0));
    let own_share = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / traced_ns;
    let (bounds_calls, bounds_ns) = layer(BOUNDS);
    let (heur_calls, heur_ns) = layer(HEUR);
    let (_, search_ns) = layer(SEARCH);
    let per_call_us = |ns: u64, calls: u64| ns as f64 / 1e3 / calls.max(1) as f64;

    report.values = search_counts(&stats, search_ns as f64);
    report.values.extend(phase_shares(&profile, profiled_ns));
    report.values.extend([
        ("bounds.calls", bounds_calls as f64),
        ("bounds.us_per_call", per_call_us(bounds_ns, bounds_calls)),
        (
            "bounds.refuted_share",
            refuted as f64 / bounds_calls.max(1) as f64,
        ),
        ("bounds.self_share", own_share(BOUNDS)),
        ("heur.calls", heur_calls as f64),
        ("heur.us_per_call", per_call_us(heur_ns, heur_calls)),
        (
            "heur.success_share",
            heuristic_hits as f64 / heur_calls.max(1) as f64,
        ),
        ("heur.self_share", own_share(HEUR)),
        ("core.search.self_share", own_share(SEARCH)),
        ("bounds_heur.instance_share_p50", median(&early_share)),
        ("trace.overhead_share", traced_ns / plain_ns as f64 - 1.0),
        (
            "trace.attributed_share",
            (bounds_ns + heur_ns + search_ns) as f64 / traced_ns,
        ),
    ]);
    report.notes.push(format!(
        "traced instances {}, searched {}",
        prefix.len(),
        searched.len()
    ));
    report.trace = Some(trace);
    report
}

// --------------------------------------------------------- search_proof

/// Overflowing module mixes (see [`gen::quads_and_units`]) with 3–6 quads
/// and 3–4 units, in turn, so every stretch of the stream has the same mix
/// of tree sizes (about 1,500 to 40,000 nodes each).
fn proof_stream(mut rng: Rng) -> impl FnMut() -> Case {
    let mixes: Vec<(usize, usize)> = (3..=6)
        .flat_map(|quads| (3..=4).map(move |units| (quads, units)))
        .collect();
    let mut drawn = 0;
    move || {
        let (quads, units) = mixes[drawn % mixes.len()];
        drawn += 1;
        gen::quads_and_units(&mut rng, quads, units)
    }
}

fn proof_config(threads: usize) -> SolverConfig {
    SolverConfig {
        use_bounds: false,
        use_heuristics: false,
        threads,
        node_limit: Some(PROOF_NODE_LIMIT),
        ..SolverConfig::default()
    }
}

/// `search_proof` instances per measured second in the traced replay.
const PROOF_TRACE_PER_SECOND: f64 = 10.0;

/// `search_proof`: infeasibility proofs by exhaustive search alone.
pub fn search_proof(options: &Options) -> Report {
    let config = proof_config(1);
    let (measured, warm) = streams(options.seed, 2);
    let setup_s = timed_setup(options.setup_repeats(), || {
        let mut next = proof_stream(warm.clone());
        for _ in 0..options.warm_jobs(40) {
            let case = next();
            std::hint::black_box(Opp::new(&case.instance).with_config(config.clone()).solve());
        }
    });
    if options.trace {
        return proof_traced(options, proof_stream(measured));
    }
    end_to_end(
        options,
        setup_s,
        75.0,
        proof_stream(measured),
        |case| Opp::new(&case.instance).with_config(config.clone()).solve(),
        check_decision,
    )
}

/// Replays a prefix of the stream. Each instance runs plain, inside
/// spans, and plain at [`PROOF_THREADS`] threads, with the order of the
/// plain runs alternating; a profiled pass follows.
fn proof_traced(options: &Options, mut next: impl FnMut() -> Case) -> Report {
    let prefix: Vec<Case> = (0..options.trace_jobs(PROOF_TRACE_PER_SECOND))
        .map(|_| next())
        .collect();
    let solve = |case: &Case, config: &SolverConfig| {
        Opp::new(&case.instance)
            .with_config(config.clone())
            .solve_with_stats()
    };
    let config = proof_config(1);
    let parallel = proof_config(PROOF_THREADS);
    let mut trace = Trace::new(Instant::now());
    let mut report = Report::new(prefix.len() as u64);
    let mut stats = SolverStats::default();
    let (mut plain_ns, mut parallel_ns) = (0, 0);
    for (i, case) in prefix.iter().enumerate() {
        let plain = || {
            std::hint::black_box(solve(case, &config));
        };
        let threaded = || {
            std::hint::black_box(solve(case, &parallel));
        };
        if i % 2 == 0 {
            plain_ns += timed(plain);
        } else {
            parallel_ns += timed(threaded);
        }
        let job = i as u64;
        trace.enter(INSTANCE, 0, job);
        let (outcome, s) = trace.span(SEARCH, 0, job, || solve(case, &config));
        trace.exit();
        stats.accumulate(&s);
        report.wrong.extend(check_decision(case, &outcome).wrong);
        if i % 2 == 0 {
            parallel_ns += timed(threaded);
        } else {
            plain_ns += timed(plain);
        }
    }
    let profiled = SolverConfig {
        profile: true,
        ..config
    };
    let mut profile = SolverStats::default();
    let profiled_ns = timed_pass(&prefix, |case| {
        profile.accumulate(&solve(case, &profiled).1)
    });

    let traced_ns = span_ns(&trace, INSTANCE) as f64;
    let search_ns = span_ns(&trace, SEARCH);
    report.values = search_counts(&stats, search_ns as f64);
    report.values.extend(phase_shares(&profile, profiled_ns));
    report.values.extend([
        ("core.search.self_share", search_ns as f64 / traced_ns),
        (
            "core.search.t2_over_t1",
            parallel_ns as f64 / plain_ns as f64,
        ),
        ("trace.overhead_share", traced_ns / plain_ns as f64 - 1.0),
        ("trace.attributed_share", search_ns as f64 / traced_ns),
    ]);
    report
        .notes
        .push(format!("traced instances {}", prefix.len()));
    report.trace = Some(trace);
    report
}
