//! Fast feasible-packing heuristics.
//!
//! Stage 2 of the paper's solver pipeline (§3.1): *"in case of failure, try
//! to find a feasible packing by using fast heuristics."* A heuristic
//! success short-circuits the exact search; a failure proves nothing.
//!
//! The workhorse is an event-driven, precedence-aware **list scheduler**
//! ([`list`]): tasks become ready when all predecessors have finished,
//! ready tasks are placed bottom-left in priority order by a free-space
//! manager that tracks the running modules' rectangles, and
//! time advances through completion events. Several priority rules plus
//! seeded random restarts are bundled in [`find_feasible`].
//!
//! # Example
//!
//! ```
//! use recopack_heur::{find_feasible, HeuristicConfig};
//! use recopack_model::{benchmarks, Chip};
//!
//! // The DE benchmark fits a 32x32 chip in 6 cycles (paper Table 1).
//! let instance = benchmarks::de(Chip::square(32), 6).with_transitive_closure();
//! if let Some(placement) = find_feasible(&instance, &HeuristicConfig::default()) {
//!     assert!(placement.verify(&instance).is_ok());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod freespace;
pub mod list;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use recopack_model::{Instance, Placement};

pub use list::{list_schedule, Priority};

/// Configuration for [`find_feasible`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicConfig {
    /// Number of random-priority restarts after the deterministic rules.
    pub random_restarts: u32,
    /// RNG seed for the restarts.
    pub seed: u64,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        Self {
            random_restarts: 24,
            seed: 0x5EED,
        }
    }
}

/// Tries the deterministic priority rules, then seeded random restarts;
/// returns the first placement that verifies.
///
/// Every returned placement has passed
/// [`Placement::verify`](recopack_model::Placement::verify) — the heuristic
/// cannot produce an unsound "feasible".
pub fn find_feasible(instance: &Instance, config: &HeuristicConfig) -> Option<Placement> {
    let mut workspace = list::Workspace::new(instance);
    try_orders(instance, config, |order| workspace.schedule(order))
}

/// Hands `attempt` the deterministic rule orders, then `random_restarts`
/// seeded shuffles, and returns the first placement it produces.
fn try_orders(
    instance: &Instance,
    config: &HeuristicConfig,
    mut attempt: impl FnMut(&[usize]) -> Option<Placement>,
) -> Option<Placement> {
    for rule in [
        Priority::CriticalPath,
        Priority::Area,
        Priority::Duration,
        Priority::Volume,
    ] {
        if let Some(p) = attempt(&rule.order(instance)) {
            return Some(p);
        }
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..instance.task_count()).collect();
    for _ in 0..config.random_restarts {
        order.shuffle(&mut rng);
        if let Some(p) = attempt(&order) {
            return Some(p);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::{benchmarks, generate, Chip, Task};

    #[test]
    fn finds_paper_row_32x32_at_6() {
        let i = benchmarks::de(Chip::square(32), 6).with_transitive_closure();
        let p = find_feasible(&i, &HeuristicConfig::default()).expect("feasible per Table 1");
        assert!(p.verify(&i).is_ok());
        assert!(p.makespan() <= 6);
    }

    #[test]
    fn finds_serial_16x16_at_14() {
        let i = benchmarks::de(Chip::square(16), 14).with_transitive_closure();
        let p = find_feasible(&i, &HeuristicConfig::default()).expect("feasible per Table 1");
        assert!(p.verify(&i).is_ok());
    }

    #[test]
    fn video_codec_at_calibrated_point() {
        let i = benchmarks::video_codec(Chip::square(64), 59).with_transitive_closure();
        let p = find_feasible(&i, &HeuristicConfig::default()).expect("feasible per Table 2");
        assert!(p.verify(&i).is_ok());
        assert!(p.makespan() <= 59);
    }

    #[test]
    fn billion_wide_chip_is_placed_without_touching_its_area() {
        let side = 1_000_000_000;
        let i = Instance::builder()
            .chip(Chip::new(side, 3))
            .horizon(4)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", side - 2, 3, 2))
            .task(Task::new("c", side, 1, 2))
            .precedence("a", "c")
            .build()
            .expect("valid");
        let p = find_feasible(&i, &HeuristicConfig::default()).expect("a and b side by side");
        assert_eq!(p.verify(&i), Ok(()));
        assert_eq!(p.makespan(), 4);
    }

    #[test]
    fn never_claims_feasible_falsely_on_random_instances() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let i = generate::random_instance(&generate::GeneratorConfig::default(), &mut rng);
            if let Some(p) = find_feasible(&i, &HeuristicConfig::default()) {
                assert_eq!(p.verify(&i), Ok(()));
            }
        }
    }

    /// The workspace and the reference scheduler agree on every order
    /// `find_feasible` tries (all of them: the visitor never stops early),
    /// on seeded random and witnessed instances and on the DE and codec
    /// grids of the paper's tables.
    #[test]
    fn workspace_matches_the_reference_on_every_tried_order() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x11_5C);
        let mut instances = Vec::new();
        for task_count in 2..=12 {
            let config = generate::GeneratorConfig {
                task_count,
                ..generate::GeneratorConfig::default()
            };
            for _ in 0..6 {
                instances.push(generate::random_instance(&config, &mut rng));
                instances.push(generate::random_feasible_instance(&config, &mut rng).0);
            }
        }
        for (side, horizon) in [(16, 13), (16, 14), (17, 12), (24, 8), (32, 5), (32, 6)] {
            instances.push(benchmarks::de(Chip::square(side), horizon).with_transitive_closure());
        }
        for (side, horizon) in [(48, 70), (63, 59), (64, 59), (64, 58)] {
            instances.push(
                benchmarks::video_codec(Chip::square(side), horizon).with_transitive_closure(),
            );
        }
        let config = HeuristicConfig::default();
        let (mut orders, mut placed) = (0, 0);
        for instance in &instances {
            let mut workspace = list::Workspace::new(instance);
            try_orders(instance, &config, |order| {
                let got = workspace.schedule(order);
                assert_eq!(got, list::reference_list_schedule(instance, order));
                orders += 1;
                placed += usize::from(got.is_some());
                None
            });
        }
        assert_eq!(orders, 28 * instances.len());
        assert!(
            placed > orders / 4 && placed < orders,
            "{placed} of {orders} placed"
        );
    }

    #[test]
    fn finds_witnessed_feasible_instances_often() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut found = 0;
        for _ in 0..20 {
            let (i, _) =
                generate::random_feasible_instance(&generate::GeneratorConfig::default(), &mut rng);
            if find_feasible(&i, &HeuristicConfig::default()).is_some() {
                found += 1;
            }
        }
        // Witness containers are generous; the heuristic should almost
        // always succeed. Demand a clear majority to catch regressions.
        assert!(found >= 15, "only {found}/20 witnessed instances solved");
    }
}
