//! Outcome determinism of the parallel branch-and-bound: for every thread
//! count the solver must return the *same verdict* and, when feasible, the
//! *same verifying certificate* as the sequential search (DESIGN.md,
//! "Adaptive work-stealing parallel search").
//!
//! Bounds and heuristics are disabled so every decision below actually runs
//! the search tree — with them on, most of these instances never reach the
//! branch-and-bound and the test would prove nothing about it.

use rand::rngs::StdRng;
use rand::SeedableRng;

use recopack::model::generate::{random_instance, GeneratorConfig};
use recopack::model::Placement;
use recopack::solver::{Opp, SolveOutcome, SolverConfig};

fn search_only(threads: usize) -> SolverConfig {
    SolverConfig {
        use_bounds: false,
        use_heuristics: false,
        threads,
        ..SolverConfig::default()
    }
}

fn decide(instance: &recopack::model::Instance, threads: usize) -> Option<Placement> {
    match Opp::new(instance).with_config(search_only(threads)).solve() {
        SolveOutcome::Feasible(p) => {
            assert_eq!(p.verify(instance), Ok(()), "certificates must verify");
            Some(p)
        }
        SolveOutcome::Infeasible(_) => None,
        SolveOutcome::ResourceLimit(_) => panic!("no limits configured"),
    }
}

/// 60 seeded random instances, threads 1 / 2 / 4 / 8: identical verdicts
/// and identical certificates. The seeds cover both feasible and
/// infeasible instances (the generator's arc density plus tight horizons
/// produces a mix), and the oversubscribed 8-thread runs exercise far more
/// workers than the host's single CPU.
#[test]
fn verdicts_and_certificates_are_thread_count_invariant() {
    let mut feasible_seen = 0u32;
    let mut infeasible_seen = 0u32;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let config = GeneratorConfig {
            task_count: 3 + (seed as usize % 4),
            max_side: 3,
            max_duration: 3,
            arc_percent: 30,
        };
        let instance = random_instance(&config, &mut rng);
        let sequential = decide(&instance, 1);
        match &sequential {
            Some(_) => feasible_seen += 1,
            None => infeasible_seen += 1,
        }
        for threads in [2, 4, 8] {
            let parallel = decide(&instance, threads);
            assert_eq!(
                parallel, sequential,
                "seed {seed}, {threads} threads: outcome diverged on {instance:?}"
            );
        }
    }
    // The sweep must actually exercise both answers, or the invariance
    // claim is vacuous for one of them.
    assert!(feasible_seen >= 10, "only {feasible_seen} feasible seeds");
    assert!(
        infeasible_seen >= 10,
        "only {infeasible_seen} infeasible seeds"
    );
}

/// Merged telemetry counters are thread-count invariant for exhausted
/// searches: an infeasible instance (no limits configured) forces every
/// thread count to explore exactly the same tree, so the per-thread
/// [`SolverStats`](recopack::solver::SolverStats) must sum to identical
/// totals — nodes, depth histogram, per-rule conflicts, fixations, budget
/// checks, everything.
#[test]
fn merged_stats_are_thread_count_invariant_on_exhausted_searches() {
    use recopack::model::{Chip, Instance, Task};

    // Fixed search-heavy infeasible instances. The quad family packs
    // 2x2x2 tasks into the single time slot of a 4x4 chip that holds only
    // four of them; the mixed variant adds unit-duration tasks, whose
    // pairs can be time-separated, so the time dimension branches too.
    // All are volume-infeasible, but with bounds disabled only exhaustive
    // search can prove it.
    let quad = |count: usize, extra_units: usize, horizon: u64| {
        let mut builder = Instance::builder().chip(Chip::square(4)).horizon(horizon);
        for i in 0..count {
            builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
        }
        for i in 0..extra_units {
            builder = builder.task(Task::new(format!("u{i}"), 2, 2, 1));
        }
        builder.build().expect("valid").with_transitive_closure()
    };
    let mut instances = vec![quad(5, 0, 2), quad(6, 0, 2), quad(4, 4, 2)];

    // Plus every infeasible seed of a small random sweep, for variety in
    // tree shape (the feasible ones are covered by the verdict test above —
    // their node counts legitimately differ across thread counts because
    // cancellation skips subtrees behind the certificate).
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let config = GeneratorConfig {
            task_count: 3 + (seed as usize % 4),
            max_side: 3,
            max_duration: 3,
            arc_percent: 30,
        };
        let instance = random_instance(&config, &mut rng);
        if decide(&instance, 1).is_none() {
            instances.push(instance);
        }
    }
    assert!(instances.len() >= 4, "need several infeasible instances");

    let stats_at = |instance: &recopack::model::Instance, threads: usize| {
        let (outcome, stats) = Opp::new(instance)
            .with_config(search_only(threads))
            .solve_with_stats();
        assert!(
            matches!(outcome, SolveOutcome::Infeasible(_)),
            "expected exhaustion"
        );
        stats
    };
    let mut searched = 0u32;
    for (i, instance) in instances.iter().enumerate() {
        let sequential = stats_at(instance, 1);
        // Some random seeds are refuted during root propagation (0 nodes);
        // they still participate in the equality check below.
        if sequential.nodes > 0 {
            searched += 1;
        } else {
            assert!(i >= 3, "crafted instance {i} must actually search");
        }
        assert_eq!(
            sequential.depth_histogram.iter().sum::<u64>(),
            sequential.nodes,
            "instance {i}: histogram must partition the nodes"
        );
        for threads in [2, 4, 8] {
            let parallel = stats_at(instance, threads);
            assert_eq!(
                parallel, sequential,
                "instance {i}, {threads} threads: merged stats diverged"
            );
        }
        // And repeat runs at the same thread count are identical too.
        assert_eq!(stats_at(instance, 8), sequential, "instance {i}: rerun");
    }
    assert!(searched >= 3, "only {searched} instances actually searched");
}

/// Profiling must not break stats invariance: with `profile: true` the
/// timing fields are nondeterministic wall-clock measurements, but zeroing
/// them must recover exactly the counters of an unprofiled run at any
/// thread count. This is the contract documented on
/// [`SolverConfig::profile`](recopack::solver::SolverConfig) — timings are
/// informational, counters stay exact.
#[test]
fn profiling_changes_timings_but_not_counters() {
    use recopack::model::{Chip, Instance, Task};
    use recopack::solver::SolverStats;

    let mut builder = Instance::builder().chip(Chip::square(4)).horizon(2);
    for i in 0..5 {
        builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
    }
    let instance = builder.build().expect("valid").with_transitive_closure();

    let strip_timings = |mut stats: SolverStats| {
        stats.propagate_ns = 0;
        stats.bounds_ns = 0;
        stats.realize_ns = 0;
        stats.prune_ns = [0; 4];
        stats
    };
    let stats_at = |threads: usize, profile: bool| {
        let config = SolverConfig {
            profile,
            ..search_only(threads)
        };
        let (outcome, stats) = Opp::new(&instance).with_config(config).solve_with_stats();
        assert!(matches!(outcome, SolveOutcome::Infeasible(_)));
        stats
    };

    let plain = stats_at(1, false);
    assert!(plain.nodes > 0, "the instance must actually search");
    assert_eq!(plain.profiled_ns(), 0, "profiling off records no time");
    for threads in [1, 2, 8] {
        let profiled = stats_at(threads, true);
        assert!(
            profiled.profiled_ns() > 0,
            "{threads} threads: profiling must record time somewhere"
        );
        assert_eq!(
            strip_timings(profiled),
            plain,
            "{threads} threads: profiling changed the counters"
        );
    }
}

/// A tree deep enough that the work-stealing scheduler *actually* splits
/// (the mixed quad/unit family runs thousands of nodes, far past the
/// default split threshold), checked at 1 / 2 / 4 / 8 threads and under
/// forced-split knobs: identical verdicts, identical merged stats. With
/// `split_after_nodes: 1` every node offers a split, so this exercises
/// unit donation, cloning, and abandonment bookkeeping at maximum rate.
///
/// Every run's [`SolveHandle`](recopack::solver::SolveHandle) must equal
/// its merged stats once the solve returns, stolen units included; a BMP
/// run's handle sums its decisions and counts one finished search per
/// decision that searched, as a trace journal does.
#[test]
fn stealing_scale_verdicts_and_stats_are_invariant() {
    use std::sync::Arc;

    use recopack::model::{Chip, Instance, Task};
    use recopack::solver::{Bmp, MemoryJournal, SolveProgress, Telemetry};

    // ~5000 nodes, infeasible by volume: six 2x2x2 tasks plus four
    // unit-duration 2x2x1 tasks on a 4x4 chip with horizon 2 (the bench
    // suite's `mixed64` case).
    let mut builder = Instance::builder().chip(Chip::square(4)).horizon(2);
    for i in 0..6 {
        builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
    }
    for i in 0..4 {
        builder = builder.task(Task::new(format!("u{i}"), 2, 2, 1));
    }
    let instance = builder.build().expect("valid").with_transitive_closure();

    let stats_at = |threads: usize, split_after_nodes: u64, split_backlog: usize| {
        let config = SolverConfig {
            split_after_nodes,
            split_backlog,
            ..search_only(threads)
        };
        let (outcome, stats) = Opp::new(&instance)
            .with_config(config.clone())
            .solve_with_stats();
        assert!(
            matches!(outcome, SolveOutcome::Infeasible(_)),
            "{threads} threads (split_after_nodes {split_after_nodes}): expected exhaustion"
        );
        assert_eq!(
            config.handle.progress(),
            SolveProgress::of(&stats, 1),
            "{threads} threads (split_after_nodes {split_after_nodes}): handle diverged"
        );
        stats
    };
    let bmp_at = |threads: usize| {
        let journal = Arc::new(MemoryJournal::new(0));
        let config = SolverConfig {
            split_after_nodes: 1,
            telemetry: Telemetry::to(journal.clone()),
            ..search_only(threads)
        };
        let result = Bmp::new(&instance)
            .with_config(config.clone())
            .solve()
            .expect("a chip fits the deadline");
        let searches = journal.searches_finished();
        assert!(searches > 1, "{threads} threads: BMP runs several searches");
        assert_eq!(
            config.handle.progress(),
            SolveProgress::of(&result.stats, searches),
            "{threads} threads: BMP handle diverged"
        );
        result
    };
    let sequential = stats_at(1, 256, 0);
    let sequential_bmp = bmp_at(1);
    assert!(
        sequential.nodes > 1000,
        "the instance must be deep enough to split (got {} nodes)",
        sequential.nodes
    );
    for threads in [2, 4, 8] {
        assert_eq!(stats_at(threads, 256, 0), sequential, "{threads} threads");
        assert_eq!(
            stats_at(threads, 1, 2),
            sequential,
            "{threads} threads, forced splitting"
        );
        assert_eq!(
            bmp_at(threads).side,
            sequential_bmp.side,
            "{threads} threads"
        );
    }
}

/// Resource limits are thread-count invariant on this infeasible deep
/// instance: the node budget is a single global counter and an
/// already-expired time limit is observed at the first node, so every
/// thread count reports the same [`LimitKind`]
/// (recopack::solver::LimitKind).
#[test]
fn budget_limited_runs_report_the_same_limit_at_every_thread_count() {
    use recopack::model::{Chip, Instance, Task};
    use recopack::solver::LimitKind;

    let mut builder = Instance::builder().chip(Chip::square(4)).horizon(2);
    for i in 0..6 {
        builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
    }
    for i in 0..4 {
        builder = builder.task(Task::new(format!("u{i}"), 2, 2, 1));
    }
    let instance = builder.build().expect("valid").with_transitive_closure();

    for threads in [1, 2, 4, 8] {
        // Node budget well below the ~5000-node tree. Force splitting so
        // the budget is also exercised across stolen units.
        let config = SolverConfig {
            node_limit: Some(500),
            split_after_nodes: 1,
            ..search_only(threads)
        };
        let (outcome, stats) = Opp::new(&instance).with_config(config).solve_with_stats();
        assert!(
            matches!(outcome, SolveOutcome::ResourceLimit(LimitKind::Nodes)),
            "{threads} threads: expected the node limit, got {outcome:?}"
        );
        assert!(
            stats.nodes <= 500 + 8,
            "{threads} threads: budget is global, got {} nodes",
            stats.nodes
        );

        // A pre-expired time limit stops before any work at every thread
        // count.
        let config = SolverConfig {
            time_limit: Some(std::time::Duration::ZERO),
            ..search_only(threads)
        };
        let (outcome, _) = Opp::new(&instance).with_config(config).solve_with_stats();
        assert!(
            matches!(outcome, SolveOutcome::ResourceLimit(LimitKind::Time)),
            "{threads} threads: expected the time limit, got {outcome:?}"
        );
    }
}

/// The same invariance under the bare configuration (no propagation rules):
/// much larger trees per instance, so fewer seeds.
#[test]
fn bare_search_is_thread_count_invariant() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(9100 + seed);
        let config = GeneratorConfig {
            task_count: 3 + (seed as usize % 2),
            max_side: 3,
            max_duration: 3,
            arc_percent: 30,
        };
        let instance = random_instance(&config, &mut rng);
        let decide_bare = |threads: usize| {
            let config = SolverConfig {
                threads,
                ..SolverConfig::bare()
            };
            match Opp::new(&instance).with_config(config).solve() {
                SolveOutcome::Feasible(p) => {
                    assert_eq!(p.verify(&instance), Ok(()));
                    Some(p)
                }
                SolveOutcome::Infeasible(_) => None,
                SolveOutcome::ResourceLimit(_) => panic!("no limits configured"),
            }
        };
        let sequential = decide_bare(1);
        for threads in [2, 4, 8] {
            assert_eq!(
                decide_bare(threads),
                sequential,
                "seed {seed}, {threads} threads (bare) diverged on {instance:?}"
            );
        }
    }
}
