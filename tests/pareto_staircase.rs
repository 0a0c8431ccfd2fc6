//! The Pareto staircase against the unit-step sweep it replaced, which
//! solved SPP at every chip side from the largest module side up until the
//! makespan reached the critical path. On seeded random instances, half of
//! them without precedence, both must give the same (side, makespan)
//! pairs, every staircase placement must verify at its own point, and the
//! staircase may never solve more decisions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use recopack::model::generate::{random_instance, GeneratorConfig};
use recopack::model::{Chip, Dim, Instance};
use recopack::solver::{pareto_front_with_stats, SolverConfig, Spp};

/// The unit-step reference: the front's (side, makespan) pairs and the
/// decisions solved to find them.
fn unit_step_front(instance: &Instance, config: &SolverConfig) -> (Vec<(u64, u64)>, u32) {
    let largest_side = instance
        .tasks()
        .iter()
        .map(|t| t.width().max(t.height()))
        .max()
        .expect("nonempty");
    let t_floor = instance
        .critical_path_length()
        .max(instance.sizes(Dim::Time).into_iter().max().unwrap_or(0));
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    let mut decisions = 0;
    for side in largest_side.. {
        let on_side = instance.clone().with_chip(Chip::square(side));
        let result = Spp::new(&on_side)
            .with_config(config.clone())
            .solve()
            .expect("no limits");
        decisions += result.decisions;
        if pairs.last().is_none_or(|&(_, t)| result.makespan < t) {
            pairs.push((side, result.makespan));
        }
        if result.makespan == t_floor {
            break;
        }
    }
    (pairs, decisions)
}

#[test]
fn staircase_matches_the_unit_step_sweep() {
    let config = SolverConfig::default();
    let mut rng = StdRng::seed_from_u64(0x57A1);
    let (mut staircase_total, mut reference_total) = (0, 0);
    for case in 0..200 {
        let generator = GeneratorConfig {
            task_count: rng.gen_range(2..=6),
            max_side: rng.gen_range(1..=5),
            max_duration: rng.gen_range(1..=4),
            arc_percent: 35,
        };
        let mut instance = random_instance(&generator, &mut rng).with_transitive_closure();
        if case % 2 == 1 {
            instance = instance.without_precedence();
        }
        let (front, _, decisions) = pareto_front_with_stats(&instance, &config).expect("no limits");
        let pairs: Vec<(u64, u64)> = front.iter().map(|p| (p.side, p.makespan)).collect();
        let (reference, reference_decisions) = unit_step_front(&instance, &config);
        assert_eq!(pairs, reference, "case {case}: {instance:?}");
        for p in &front {
            let at_point = instance
                .clone()
                .with_chip(Chip::square(p.side))
                .with_horizon(p.makespan);
            assert_eq!(p.placement.verify(&at_point), Ok(()), "case {case}");
        }
        assert!(
            decisions <= reference_decisions,
            "case {case}: {decisions} decisions against {reference_decisions}: {instance:?}"
        );
        staircase_total += decisions;
        reference_total += reference_decisions;
    }
    println!("decisions: staircase {staircase_total}, unit step {reference_total}");
}
