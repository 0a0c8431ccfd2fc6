//! Performance regression net. The propagation rules must keep the search
//! trees of the paper workloads tiny: the first four tests pin workloads
//! that once blew up during development (DESIGN.md experiment A1), with
//! generous headroom. The node ledger then pins twenty cases exactly, and
//! a release-only gate keeps two-thread search within 1.5× of one thread.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use recopack::model::generate::{
    layered_instance, random_instance, GeneratorConfig, LayeredConfig,
};
use recopack::model::{benchmarks, Chip, Instance, Task};
use recopack::solver::{Bmp, Opp, Sampler, SolveOutcome, SolverConfig, Spp};

fn search_only() -> SolverConfig {
    SolverConfig {
        use_bounds: false,
        use_heuristics: false,
        node_limit: Some(100_000),
        ..SolverConfig::default()
    }
}

#[test]
fn de_17x17_t12_infeasibility_stays_cheap() {
    let instance = benchmarks::de(Chip::square(17), 12).with_transitive_closure();
    let (outcome, stats) = Opp::new(&instance)
        .with_config(search_only())
        .solve_with_stats();
    assert!(matches!(outcome, SolveOutcome::Infeasible(_)));
    assert!(
        stats.nodes < 1_000,
        "tree regressed to {} nodes",
        stats.nodes
    );
}

#[test]
fn de_31x31_t6_infeasibility_stays_cheap() {
    let instance = benchmarks::de(Chip::square(31), 6).with_transitive_closure();
    let (outcome, stats) = Opp::new(&instance)
        .with_config(search_only())
        .solve_with_stats();
    assert!(matches!(outcome, SolveOutcome::Infeasible(_)));
    assert!(
        stats.nodes < 1_000,
        "tree regressed to {} nodes",
        stats.nodes
    );
}

#[test]
fn codec_63x63_infeasibility_stays_cheap() {
    let instance = benchmarks::video_codec(Chip::square(63), 200).with_transitive_closure();
    let (outcome, stats) = Opp::new(&instance)
        .with_config(search_only())
        .solve_with_stats();
    assert!(matches!(outcome, SolveOutcome::Infeasible(_)));
    assert!(
        stats.nodes < 10_000,
        "tree regressed to {} nodes",
        stats.nodes
    );
}

#[test]
fn de_feasible_rows_find_leaves_quickly() {
    for (h, t) in [(16u64, 14u64), (17, 13), (32, 6)] {
        let instance = benchmarks::de(Chip::square(h), t).with_transitive_closure();
        let (outcome, stats) = Opp::new(&instance)
            .with_config(search_only())
            .solve_with_stats();
        match outcome {
            SolveOutcome::Feasible(p) => assert_eq!(p.verify(&instance), Ok(())),
            other => panic!("{h}x{h}@T={t} should be feasible, got {other:?}"),
        }
        assert!(
            stats.nodes < 100_000,
            "{h}x{h}@T={t} took {} nodes",
            stats.nodes
        );
    }
}

/// How a ledger case is solved. The DE cases run the full pipeline
/// (bounds, heuristics, search); the seeded and overflow families run the
/// search alone, so their node counts measure it.
#[derive(Debug, Clone, Copy)]
enum Run {
    Opp,
    Bmp,
    Spp,
    Search,
}

/// The node ledger: (case, threads, outcome, nodes), 283,605 nodes in all.
///
/// The packing-class search is deterministic, so every count is exact,
/// and a change that moves one (in either direction) updates this table
/// and says why. Cases that may be feasible run at one thread only:
/// parallel cancellation can change how much of the tree is explored
/// before the certificate is found. The overflow families are infeasible
/// by construction and also run at two threads, where an exhausted search
/// explores the same tree.
const LEDGER: [(&str, usize, &str, u64); 20] = [
    ("de_opp_32x6", 1, "feasible", 0),
    ("de_opp_32x5_refuted", 1, "infeasible", 0),
    ("de_spp_16", 1, "makespan 14", 0),
    ("de_bmp_t14", 1, "side 16", 0),
    ("random_s9001", 1, "feasible", 89),
    ("random_s9002", 1, "infeasible", 0),
    ("random_s9003", 1, "feasible", 53),
    ("random_s9004", 1, "feasible", 16),
    ("layered_s9101", 1, "feasible", 75),
    ("layered_s9102", 1, "feasible", 66),
    ("quad5", 1, "infeasible", 209),
    ("quad5", 2, "infeasible", 209),
    ("quad6", 1, "infeasible", 229),
    ("quad6", 2, "infeasible", 229),
    ("quad7", 1, "infeasible", 229),
    ("quad7", 2, "infeasible", 229),
    ("mixed64", 1, "infeasible", 5_309),
    ("mixed64", 2, "infeasible", 5_309),
    ("mixed56", 1, "infeasible", 135_677),
    ("mixed56", 2, "infeasible", 135_677),
];

/// `quads` full-height 2×2×2 modules plus `units` unit-duration 2×2×1
/// modules on a 4×4 chip with horizon 2. The chip holds four footprints at
/// a time, so five or more quads are infeasible, yet with bounds off only
/// an exhaustive spatial search proves it. Unit modules can be separated
/// in time, so with them time branches too and the tree grows to
/// thousands or ~10⁵ nodes: deep enough that the work-stealing scheduler
/// splits it.
fn overflow(quads: usize, units: usize) -> Instance {
    let mut builder = Instance::builder().chip(Chip::square(4)).horizon(2);
    for i in 0..quads {
        builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
    }
    for i in 0..units {
        builder = builder.task(Task::new(format!("u{i}"), 2, 2, 1));
    }
    builder.build().expect("structurally valid")
}

/// Seven random modules with sides and durations up to 3 on a
/// volume-tight chip.
fn random(seed: u64) -> Instance {
    let config = GeneratorConfig {
        task_count: 7,
        max_side: 3,
        max_duration: 3,
        arc_percent: 30,
    };
    random_instance(&config, &mut StdRng::seed_from_u64(seed))
}

/// A three-layer pipeline of three modules per layer.
fn layered(seed: u64) -> Instance {
    let config = LayeredConfig {
        layers: 3,
        width: 3,
        max_side: 3,
        max_duration: 3,
        arc_percent: 50,
    };
    layered_instance(&config, &mut StdRng::seed_from_u64(seed))
}

/// The ledger case `name`: how it is solved and its instance.
fn case(name: &str) -> (Run, Instance) {
    let de = |side, horizon| benchmarks::de(Chip::square(side), horizon);
    let (run, instance) = match name {
        "de_opp_32x6" => (Run::Opp, de(32, 6)),
        "de_opp_32x5_refuted" => (Run::Opp, de(32, 5)),
        "de_spp_16" => (Run::Spp, de(16, 1)),
        "de_bmp_t14" => (Run::Bmp, de(1, 14)),
        "random_s9001" => (Run::Search, random(9001)),
        "random_s9002" => (Run::Search, random(9002)),
        "random_s9003" => (Run::Search, random(9003)),
        "random_s9004" => (Run::Search, random(9004)),
        "layered_s9101" => (Run::Search, layered(9101)),
        "layered_s9102" => (Run::Search, layered(9102)),
        "quad5" => (Run::Search, overflow(5, 0)),
        "quad6" => (Run::Search, overflow(6, 0)),
        "quad7" => (Run::Search, overflow(7, 0)),
        "mixed64" => (Run::Search, overflow(6, 4)),
        "mixed56" => (Run::Search, overflow(5, 6)),
        _ => panic!("no ledger case {name}"),
    };
    (run, instance.with_transitive_closure())
}

/// Solves a ledger case: its outcome, its search nodes and the wall time
/// of the solve.
fn solve(name: &str, threads: usize, profile: bool) -> (String, u64, Duration) {
    let (run, instance) = case(name);
    let pipeline = match run {
        Run::Search => SolverConfig {
            use_bounds: false,
            use_heuristics: false,
            ..SolverConfig::default()
        },
        _ => SolverConfig::default(),
    };
    let config = SolverConfig {
        threads,
        profile,
        ..pipeline
    };
    let started = Instant::now();
    let (outcome, nodes) = match run {
        Run::Opp | Run::Search => {
            let (outcome, stats) = Opp::new(&instance).with_config(config).solve_with_stats();
            let outcome = match outcome {
                SolveOutcome::Feasible(_) => "feasible".to_string(),
                SolveOutcome::Infeasible(_) => "infeasible".to_string(),
                SolveOutcome::ResourceLimit(limit) => format!("{limit} reached"),
            };
            (outcome, stats.nodes)
        }
        Run::Bmp => match Bmp::new(&instance).with_config(config).solve() {
            Some(r) => (format!("side {}", r.side), r.stats.nodes),
            None => ("unsolved".to_string(), 0),
        },
        Run::Spp => match Spp::new(&instance).with_config(config).solve() {
            Some(r) => (format!("makespan {}", r.makespan), r.stats.nodes),
            None => ("unsolved".to_string(), 0),
        },
    };
    (outcome, nodes, started.elapsed())
}

/// Every ledger row whose outcome or node count differs from a fresh run.
fn drift(profile: bool) -> Vec<String> {
    LEDGER
        .iter()
        .filter_map(|&(case, threads, outcome, nodes)| {
            let (got, got_nodes, _) = solve(case, threads, profile);
            ((got.as_str(), got_nodes) != (outcome, nodes)).then(|| {
                format!("{case} t{threads}: {got}, {got_nodes} nodes; pinned {outcome}, {nodes}")
            })
        })
        .collect()
}

/// The ledger holds exactly in three runs: plain, profiled and under a
/// live 97 Hz sampler. Profiling adds clock reads around the cascade, and
/// the sampler only reads the workers' beacons, so neither may change
/// what the search explores.
#[test]
fn node_ledger_holds_plain_profiled_and_sampled() {
    assert_eq!(drift(false), Vec::<String>::new(), "plain run");
    assert_eq!(drift(true), Vec::<String>::new(), "profiled run");
    let sampler = Sampler::start(97);
    let sampled = drift(false);
    let profile = sampler.stop();
    assert_eq!(sampled, Vec::<String>::new(), "sampled run");
    assert_eq!(profile.hz, 97);
    // Whether a tick lands inside a solve is timing luck, but every
    // captured stack must be well-formed.
    for (stack, weight) in &profile.stacks {
        assert!(
            stack.starts_with("worker:") && *weight > 0,
            "{stack} {weight}"
        );
    }
}

/// Two threads may cost at most 1.5× one thread, walls summed over the
/// five families the ledger runs at both counts. The eager frontier split
/// once ran the quad family 3–5× slower at two threads; this keeps that
/// from returning. Most pairs run in well under a millisecond, where one
/// scheduler hiccup flips a ratio, so the gate judges the sum. Walls
/// taken in a debug build or beside other tests are noise, so the test
/// runs only optimized, and alone:
/// `cargo test --release --test search_regressions
/// two_threads_cost_at_most_one_and_a_half_times_one`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock gate: run it optimized and alone"
)]
fn two_threads_cost_at_most_one_and_a_half_times_one() {
    let (mut t1, mut t2) = (Duration::ZERO, Duration::ZERO);
    for &(case, threads, _, _) in &LEDGER {
        if threads == 2 {
            t1 += solve(case, 1, false).2;
            t2 += solve(case, 2, false).2;
        }
    }
    assert!(
        t2 * 2 <= t1 * 3,
        "two-thread walls sum to {t2:?} against {t1:?} at one thread (limit 1.5x)"
    );
}
