//! Cross-crate invariants of the solver pipeline: bounds never refute
//! feasible instances, heuristics never fabricate packings, ablated
//! configurations never change answers, and optimizers return true optima.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use recopack::baseline::GeometricSolver;
use recopack::bounds::refute;
use recopack::heur::{find_feasible, HeuristicConfig};
use recopack::model::generate::{random_feasible_instance, random_instance, GeneratorConfig};
use recopack::model::Chip;
use recopack::solver::{Bmp, Opp, SolverConfig, Spp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Soundness of stage 1: a refutation on a witnessed instance would be
    /// a catastrophic bug.
    #[test]
    fn bounds_never_refute_witnessed_instances(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (instance, _) = random_feasible_instance(&GeneratorConfig::default(), &mut rng);
        prop_assert_eq!(refute(&instance), None);
    }

    /// The same soundness past `u64` capacities: on a chip whose area (and
    /// volume) overflows `u64` the witness still verifies, so no bound may
    /// refute the instance and OPP must find it feasible.
    #[test]
    fn bounds_never_refute_witnessed_instances_on_huge_chips(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (instance, witness) = random_feasible_instance(&GeneratorConfig::default(), &mut rng);
        for chip in [Chip::new(1 << 32, 1 << 32), Chip::new(1 << 40, 1 << 24)] {
            let huge = instance.clone().with_chip(chip);
            prop_assert_eq!(witness.verify(&huge), Ok(()));
            prop_assert_eq!(refute(&huge), None);
            prop_assert!(Opp::new(&huge).solve().is_feasible(), "{:?}", chip);
        }
    }

    /// Soundness of stage 2: every heuristic success verifies geometrically.
    #[test]
    fn heuristics_only_return_verified_packings(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(31));
        let instance = random_instance(&GeneratorConfig::default(), &mut rng);
        if let Some(p) = find_feasible(&instance, &HeuristicConfig::default()) {
            prop_assert_eq!(p.verify(&instance), Ok(()));
        }
    }

    /// Each single pruning rule can be disabled without changing answers.
    #[test]
    fn single_rule_ablations_preserve_answers(seed in 0u64..1_500, rule in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(3));
        let config = GeneratorConfig {
            task_count: 3 + (seed as usize % 3),
            max_side: 3,
            max_duration: 3,
            arc_percent: 30,
        };
        let instance = random_instance(&config, &mut rng);
        let mut ablated = SolverConfig {
            use_bounds: false,
            use_heuristics: false,
            ..SolverConfig::default()
        };
        match rule {
            0 => ablated.clique_rule = false,
            1 => ablated.c4_rule = false,
            2 => ablated.orientation_rules = false,
            _ => ablated.must_overlap_rule = false,
        }
        let reference = SolverConfig {
            use_bounds: false,
            use_heuristics: false,
            ..SolverConfig::default()
        };
        let a = Opp::new(&instance).with_config(ablated).solve().is_feasible();
        let b = Opp::new(&instance).with_config(reference).solve().is_feasible();
        prop_assert_eq!(a, b, "rule {} changed the answer on {:?}", rule, instance);
    }
}

/// BMP optimality against brute force: the returned side is feasible and
/// side - 1 is infeasible per the independent baseline.
#[test]
fn bmp_returns_true_minimum() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut checked = 0;
    for _ in 0..40 {
        let config = GeneratorConfig {
            task_count: 4,
            max_side: 3,
            max_duration: 3,
            arc_percent: 30,
        };
        let instance = random_instance(&config, &mut rng);
        let Some(result) = Bmp::new(&instance).solve() else {
            continue;
        };
        let at = instance.clone().with_chip(Chip::square(result.side));
        assert!(GeometricSolver::new(&at).solve().is_feasible());
        if result.side > 0 {
            let below = instance.clone().with_chip(Chip::square(result.side - 1));
            assert!(
                !GeometricSolver::new(&below).solve().is_feasible(),
                "side {} was not minimal for {instance:?}",
                result.side
            );
        }
        checked += 1;
    }
    assert!(checked >= 10, "too few feasible draws ({checked})");
}

/// SPP optimality against brute force, same scheme over the horizon.
#[test]
fn spp_returns_true_minimum() {
    let mut rng = StdRng::seed_from_u64(123);
    let mut checked = 0;
    for _ in 0..40 {
        let config = GeneratorConfig {
            task_count: 4,
            max_side: 3,
            max_duration: 3,
            arc_percent: 30,
        };
        let instance = random_instance(&config, &mut rng);
        let Some(result) = Spp::new(&instance).solve() else {
            continue;
        };
        let at = instance.clone().with_horizon(result.makespan);
        assert!(GeometricSolver::new(&at).solve().is_feasible());
        if result.makespan > 0 {
            let below = instance.clone().with_horizon(result.makespan - 1);
            assert!(
                !GeometricSolver::new(&below).solve().is_feasible(),
                "makespan {} was not minimal for {instance:?}",
                result.makespan
            );
        }
        checked += 1;
    }
    assert!(checked >= 10, "too few feasible draws ({checked})");
}

/// The time budget is honored: an effectively zero limit turns a nontrivial
/// bare search into `ResourceLimit` instead of an answer.
#[test]
fn time_limit_yields_resource_limit() {
    use recopack::model::Task;
    use recopack::solver::SolveOutcome;
    let instance = recopack::model::Instance::builder()
        .chip(Chip::square(6))
        .horizon(10)
        .tasks((0..8).map(|k| Task::new(format!("t{k}"), 3, 3, 3)))
        .build()
        .expect("valid");
    let config = SolverConfig {
        time_limit: Some(std::time::Duration::ZERO),
        ..SolverConfig::bare()
    };
    // The bare tree for 8 tasks dwarfs the node-counting check interval, so
    // the zero deadline must fire (whatever the answer would have been) —
    // and name the clock, not the node budget, as the cause.
    let outcome = Opp::new(&instance).with_config(config).solve();
    assert_eq!(
        outcome,
        SolveOutcome::ResourceLimit(recopack::solver::LimitKind::Time)
    );
}

/// Twin symmetry breaking must never change decisions — it only discards
/// mirror-image packings.
#[test]
fn twin_symmetry_preserves_answers() {
    let mut rng = StdRng::seed_from_u64(777);
    for k in 0..40 {
        // Force duplicate shapes so twins actually occur.
        let config = GeneratorConfig {
            task_count: 5,
            max_side: 2,
            max_duration: 2,
            arc_percent: 20,
        };
        let instance = random_instance(&config, &mut rng);
        let on = SolverConfig {
            use_bounds: false,
            use_heuristics: false,
            twin_symmetry: true,
            ..SolverConfig::default()
        };
        let off = SolverConfig {
            twin_symmetry: false,
            ..on.clone()
        };
        let a = Opp::new(&instance).with_config(on).solve().is_feasible();
        let b = Opp::new(&instance).with_config(off).solve().is_feasible();
        assert_eq!(
            a, b,
            "iteration {k}: twin rule changed answer on {instance:?}"
        );
    }
}

/// Twin symmetry must also hold when the twins end up ordered the "wrong"
/// way in a fixed schedule — the rule is disabled there.
#[test]
fn twin_symmetry_is_ignored_for_fixed_schedules() {
    use recopack::model::{Instance, Schedule, Task};
    use recopack::solver::FixedSchedule;
    let instance = Instance::builder()
        .chip(Chip::square(2))
        .horizon(4)
        .task(Task::new("a", 2, 2, 2))
        .task(Task::new("b", 2, 2, 2))
        .build()
        .expect("valid");
    // b (higher id... id 1) scheduled BEFORE a: the twin rule would force
    // the opposite orientation if it were active.
    let schedule = Schedule::new(vec![2, 0]);
    let outcome = FixedSchedule::new(&instance, &schedule).feasible();
    let p = outcome.placement().expect("schedule is packable");
    assert_eq!(p.schedule().starts(), schedule.starts());
}

/// Durations of a chain whose sums pass `u64`. Its true critical path is
/// 24549961627328068050, past the horizon below, but wrapping sums read
/// 6103217553618516434 and once let the search, the list scheduler and the
/// verifier pass a placement that ends past `u64::MAX`.
const CHAIN_PAST_U64: [u64; 3] = [
    5_379_378_428_053_189_175,
    14_695_160_499_251_117_462,
    4_475_422_700_023_761_413,
];

/// The chain `t0 → t1 → …` over the first `len` durations of
/// [`CHAIN_PAST_U64`] on a 4×4 chip. Every prefix of two or more tasks
/// overruns `u64`.
fn chain_past_u64(len: usize) -> recopack::model::Instance {
    use recopack::model::{Instance, Task};
    let mut builder = Instance::builder()
        .chip(Chip::square(4))
        .horizon(15_816_284_081_681_384_567);
    for (i, &duration) in CHAIN_PAST_U64[..len].iter().enumerate() {
        builder = builder.task(Task::new(format!("t{i}"), 1, 1, duration));
        if i > 0 {
            builder = builder.precedence(format!("t{}", i - 1), format!("t{i}"));
        }
    }
    builder.build().expect("valid")
}

#[test]
fn durations_past_u64_are_infeasible() {
    use recopack::bounds::Refutation;
    use recopack::solver::{InfeasibilityProof, SolveOutcome};
    for len in [2, 3] {
        let instance = chain_past_u64(len);
        let refutation = Refutation::CriticalPath {
            length: u64::MAX,
            horizon: instance.horizon(),
        };
        assert_eq!(refute(&instance), Some(refutation.clone()));
        assert_eq!(
            Opp::new(&instance).solve(),
            SolveOutcome::Infeasible(InfeasibilityProof::Bound(refutation))
        );
    }
}

#[test]
fn list_schedule_sums_durations_without_wrapping() {
    use recopack::heur::list_schedule;
    for len in [2, 3] {
        let order: Vec<usize> = (0..len).collect();
        assert_eq!(list_schedule(&chain_past_u64(len), &order), None, "{len}");
    }
}

#[test]
fn verify_rejects_boxes_that_end_past_u64() {
    use recopack::model::{Dim, Instance, Placement, Task, VerifyError};
    let half = 1u64 << 63;
    let instance = Instance::builder()
        .chip(Chip::square(1))
        .horizon(u64::MAX)
        .task(Task::new("a", 1, 1, half))
        .build()
        .expect("valid");
    let placement = Placement::new(vec![[0, 0, half]], &instance);
    assert_eq!(
        placement.verify(&instance),
        Err(VerifyError::OutOfBounds {
            task: 0,
            dim: Dim::Time
        })
    );
}

/// Two modules of 2^63 cycles fit side by side on a 2×1 chip, so the
/// optimum is 2^63 although serializing them takes 2^64 cycles: a wrapping
/// serial bound would read 0 and report that a module does not fit. On a
/// 1×1 chip only the serial schedule remains, and no makespan within `u64`
/// admits it.
#[test]
fn spp_solves_instances_whose_serial_schedule_passes_u64() {
    use recopack::model::{Instance, Task};
    let half = 1u64 << 63;
    let on_chip = |width| {
        Instance::builder()
            .chip(Chip::new(width, 1))
            .horizon(1)
            .task(Task::new("a", 1, 1, half))
            .task(Task::new("b", 1, 1, half))
            .build()
            .expect("valid")
    };
    let instance = on_chip(2);
    let result = Spp::new(&instance).solve().expect("both modules fit");
    assert_eq!(result.makespan, half);
    assert_eq!(
        result.placement.verify(&instance.with_horizon(half)),
        Ok(())
    );
    assert_eq!(Spp::new(&on_chip(1)).solve(), None);
}

/// The same two 2^63-cycle modules on square chips. The 1×1 chip admits
/// no makespan within `u64`, which is no resource limit: the front starts
/// on the 2×2 chip, where they run side by side.
#[test]
fn pareto_front_starts_where_a_makespan_fits_u64() {
    use recopack::model::{Instance, Task};
    use recopack::solver::pareto_front;
    let half = 1u64 << 63;
    let instance = Instance::builder()
        .chip(Chip::new(2, 1))
        .horizon(1)
        .task(Task::new("a", 1, 1, half))
        .task(Task::new("b", 1, 1, half))
        .build()
        .expect("valid");
    let front = pareto_front(&instance, &SolverConfig::default()).expect("no limits set");
    let pairs: Vec<(u64, u64)> = front.iter().map(|p| (p.side, p.makespan)).collect();
    assert_eq!(pairs, [(2, half)]);
    let target = instance.with_chip(Chip::square(2)).with_horizon(half);
    assert_eq!(front[0].placement.verify(&target), Ok(()));
}

/// Modules of 2^32 × 2^32 cells have an area past `u64`. The heuristics
/// order tasks by area and by volume, which saturate, so with bounds off
/// the search still gets to prove that two such modules cannot share the
/// chip's one cycle.
#[test]
fn modules_whose_area_passes_u64_are_ordered_without_overflow() {
    use recopack::model::{Instance, Task};
    use recopack::solver::SolveOutcome;
    let side = 1u64 << 32;
    let instance = Instance::builder()
        .chip(Chip::square(side))
        .horizon(1)
        .task(Task::new("a", side, side, 1))
        .task(Task::new("b", side, side, 1))
        .build()
        .expect("valid");
    let config = SolverConfig {
        use_bounds: false,
        ..SolverConfig::default()
    };
    assert!(matches!(
        Opp::new(&instance).with_config(config).solve(),
        SolveOutcome::Infeasible(_)
    ));
}

/// Modules of 2^63 along one dimension, with bounds and heuristics off, so
/// the search itself sets up and answers. Its branching keys, its
/// must-overlap seed and the pair form of C2 add two such extents: the
/// sums saturate instead of overflowing. On the 2^63-wide chip, `a` and
/// `b` cannot sit side by side and stack; over a horizon of 2^64 − 1,
/// two 2^63-cycle modules cannot run one after the other and overlap.
#[test]
fn search_sets_up_modules_whose_extents_sum_past_u64() {
    use recopack::model::{Instance, Task};
    use recopack::solver::SolveOutcome;
    let half = 1u64 << 63;
    let wide = Instance::builder()
        .chip(Chip::square(half))
        .horizon(2)
        .task(Task::new("a", half, 1, 1))
        .task(Task::new("b", half, 1, 1))
        .task(Task::new("c", 1, 1, 2))
        .build()
        .expect("valid");
    let long = Instance::builder()
        .chip(Chip::square(4))
        .horizon(u64::MAX)
        .task(Task::new("a", 1, 1, half))
        .task(Task::new("b", 1, 1, half))
        .build()
        .expect("valid");
    let config = SolverConfig {
        use_bounds: false,
        use_heuristics: false,
        ..SolverConfig::default()
    };
    for instance in [wide, long] {
        match Opp::new(&instance).with_config(config.clone()).solve() {
            SolveOutcome::Feasible(placement) => {
                assert_eq!(placement.verify(&instance), Ok(()));
            }
            other => panic!("feasible, got {other:?}"),
        }
    }
}

/// Three unit modules of 6148914691236517206 cycles each under horizon
/// `u64::MAX`: any two in sequence fit, all three in sequence pass `u64`.
/// The C2 clique search and the oriented-chain labels once added their
/// weights unchecked (a debug build panicked with "attempt to add with
/// overflow"); their sums saturate now, and the modules run side by side.
#[test]
fn clique_and_chain_weights_past_u64_saturate() {
    use recopack::model::{Instance, Task};
    use recopack::solver::SolveOutcome;
    let third = 6_148_914_691_236_517_206;
    let instance = Instance::builder()
        .chip(Chip::square(4))
        .horizon(u64::MAX)
        .tasks(["a", "b", "c"].map(|name| Task::new(name, 1, 1, third)))
        .build()
        .expect("valid");
    let config = SolverConfig {
        use_bounds: false,
        use_heuristics: false,
        ..SolverConfig::default()
    };
    match Opp::new(&instance).with_config(config).solve() {
        SolveOutcome::Feasible(placement) => assert_eq!(placement.verify(&instance), Ok(())),
        other => panic!("feasible, got {other:?}"),
    }
}

/// A fixed schedule whose task ends past `u64` exceeds every horizon, even
/// `u64::MAX`: the schedule check once added start and duration unchecked.
#[test]
fn fixed_schedules_that_end_past_u64_are_infeasible() {
    use recopack::model::{Instance, Schedule, Task};
    use recopack::solver::{FixedSchedule, InfeasibilityProof, SolveOutcome};
    let half = 1u64 << 63;
    let instance = Instance::builder()
        .chip(Chip::square(2))
        .horizon(u64::MAX)
        .task(Task::new("a", 1, 1, half))
        .task(Task::new("b", 1, 1, 1))
        .build()
        .expect("valid");
    let schedule = Schedule::new(vec![half, 0]);
    assert!(!schedule.respects_precedence(&instance));
    assert_eq!(schedule.makespan(&instance), u64::MAX);
    assert_eq!(
        FixedSchedule::new(&instance, &schedule).feasible(),
        SolveOutcome::Infeasible(InfeasibilityProof::SearchExhausted)
    );
}
