//! BMP: base minimization — the smallest square chip for a fixed deadline
//! (paper: MinA&FindS, solved in Table 1 and Table 2).

use recopack_model::{Chip, Instance, Placement};

use crate::bracket::{gallop, largest_side, side_by_side, Tally};
use crate::config::{SolverConfig, SolverStats};

/// Result of a base minimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmpResult {
    /// Minimal square chip side.
    pub side: u64,
    /// A verified placement on the minimal chip.
    pub placement: Placement,
    /// Accumulated statistics over all decision solves.
    pub stats: SolverStats,
    /// Number of OPP decision problems solved.
    pub decisions: u32,
}

/// Minimizes the square chip side `h` such that all tasks fit `h × h × T`
/// (search over the monotone feasibility predicate, paper §3.1).
///
/// The instance's own chip is ignored; only its horizon, tasks and
/// precedence matter.
///
/// # Example
///
/// ```
/// use recopack_core::Bmp;
/// use recopack_model::{benchmarks, Chip};
///
/// // Table 1, row T = 13: minimal chip 17x17.
/// let instance = benchmarks::de(Chip::square(1), 13).with_transitive_closure();
/// let result = Bmp::new(&instance).solve().expect("feasible");
/// assert_eq!(result.side, 17);
/// ```
#[derive(Debug)]
pub struct Bmp<'a> {
    instance: &'a Instance,
    config: SolverConfig,
}

impl<'a> Bmp<'a> {
    /// Creates a solver with the default configuration.
    pub fn new(instance: &'a Instance) -> Self {
        Self {
            instance,
            config: SolverConfig::default(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Finds the minimal square chip; `None` when no chip works (the
    /// critical path exceeds the horizon) or the budget ran out.
    ///
    /// Probes the largest module side, then doubles up to the side where
    /// all modules fit side by side (which meets any horizon from the
    /// critical path up), then binary-searches; every packing found moves
    /// the upper end down to its bounding square.
    pub fn solve(&self) -> Option<BmpResult> {
        // No chip can beat the precedence structure.
        if self.instance.critical_path_length() > self.instance.horizon() {
            return None;
        }
        let smallest = largest_side(self.instance);
        let mut tally = Tally::default();
        if smallest == 0 {
            // No tasks: the 0x0 chip trivially works.
            let empty = self.instance.clone().with_chip(Chip::square(0));
            return Some(BmpResult {
                side: 0,
                placement: Placement::new(vec![], &empty),
                stats: tally.stats,
                decisions: tally.decisions,
            });
        }
        let (side, placement) = gallop(
            smallest,
            smallest,
            side_by_side(self.instance),
            Placement::bounding_square,
            |side| {
                let candidate = self.instance.clone().with_chip(Chip::square(side));
                tally.opp(&candidate, &self.config)
            },
        )
        .flatten()?;
        Some(BmpResult {
            side,
            placement,
            stats: tally.stats,
            decisions: tally.decisions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::{benchmarks, Task};

    #[test]
    fn de_row_t14_minimal_chip_is_16() {
        let i = benchmarks::de(Chip::square(1), 14).with_transitive_closure();
        let r = Bmp::new(&i).solve().expect("feasible");
        assert_eq!(r.side, 16);
        assert!(r.placement.verify(&i.with_chip(Chip::square(16))).is_ok());
        // The a-priori lower bound (largest module side) is already 16, so
        // a single decision can suffice.
        assert!(r.decisions >= 1);
    }

    #[test]
    fn impossible_horizon_returns_none() {
        let i = benchmarks::de(Chip::square(1), 5).with_transitive_closure();
        assert_eq!(Bmp::new(&i).solve(), None);
    }

    #[test]
    fn single_task_chip_matches_task() {
        let i = Instance::builder()
            .chip(Chip::square(1))
            .horizon(3)
            .task(Task::new("a", 3, 2, 3))
            .build()
            .expect("valid");
        let r = Bmp::new(&i).solve().expect("feasible");
        assert_eq!(r.side, 3);
    }

    #[test]
    fn empty_instance_needs_no_chip() {
        let i = Instance::builder()
            .chip(Chip::square(5))
            .horizon(1)
            .build()
            .expect("valid");
        let r = Bmp::new(&i).solve().expect("trivially feasible");
        assert_eq!(r.side, 0);
    }
}
