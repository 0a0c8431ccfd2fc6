//! FixedS problems: start times given, only space is packed
//! (paper: FeasA&FixedS and MinA&FixedS, the cases solved in [22, 23]).
//!
//! With the schedule fixed, every time slot of the packing-class state is
//! determined by interval overlap, and the search degenerates to the purely
//! two-dimensional problem the paper highlights in §4: "the nature of the
//! data structures simplifies these problems from three-dimensional to
//! purely two-dimensional ones."

use recopack_model::{Chip, Instance, Placement, Schedule};

use crate::bracket::{gallop, largest_side, side_by_side, Tally};
use crate::config::{SolverConfig, SolverStats};
use crate::opp::{InfeasibilityProof, SolveOutcome};
use crate::search::{Search, SearchResult};

/// Solver for problems with prescribed start times.
///
/// # Example
///
/// ```
/// use recopack_core::FixedSchedule;
/// use recopack_model::{Chip, Instance, Schedule, Task};
///
/// let instance = Instance::builder()
///     .chip(Chip::new(4, 2))
///     .horizon(2)
///     .task(Task::new("a", 2, 2, 2))
///     .task(Task::new("b", 2, 2, 2))
///     .build()?;
/// // Both tasks start at 0: they must sit side by side.
/// let schedule = Schedule::new(vec![0, 0]);
/// let outcome = FixedSchedule::new(&instance, &schedule).feasible();
/// assert!(outcome.is_feasible());
/// # Ok::<(), recopack_model::BuildError>(())
/// ```
#[derive(Debug)]
pub struct FixedSchedule<'a> {
    instance: &'a Instance,
    schedule: &'a Schedule,
    config: SolverConfig,
}

impl<'a> FixedSchedule<'a> {
    /// Creates a solver for `instance` under the given start times.
    pub fn new(instance: &'a Instance, schedule: &'a Schedule) -> Self {
        Self {
            instance,
            schedule,
            config: SolverConfig::default(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Decides spatial feasibility under the fixed starts (FeasA&FixedS).
    pub fn feasible(&self) -> SolveOutcome {
        self.feasible_with_stats().0
    }

    /// Decides spatial feasibility and reports statistics.
    pub fn feasible_with_stats(&self) -> (SolveOutcome, SolverStats) {
        let stats = SolverStats::default();
        if !self.schedule.respects_precedence(self.instance) {
            return (
                SolveOutcome::Infeasible(InfeasibilityProof::SearchExhausted),
                stats,
            );
        }
        // Energy bound with exact starts: at every start time, running tasks
        // must fit the chip area.
        if self.config.use_bounds {
            if let Some(refutation) = self.energy_refutation() {
                let mut s = stats;
                s.refuted_by_bounds = true;
                s.refuting_bound = Some(refutation.kind());
                return (
                    SolveOutcome::Infeasible(InfeasibilityProof::Bound(refutation)),
                    s,
                );
            }
        }
        let search = Search::with_fixed_starts(
            self.instance,
            &self.config,
            Some(self.schedule.starts().to_vec()),
        );
        let (result, search_stats) = search.run();
        let outcome = match result {
            SearchResult::Feasible(p) => SolveOutcome::Feasible(p),
            SearchResult::Infeasible => {
                SolveOutcome::Infeasible(InfeasibilityProof::SearchExhausted)
            }
            SearchResult::Limit(kind) => SolveOutcome::ResourceLimit(kind),
        };
        (outcome, search_stats)
    }

    fn energy_refutation(&self) -> Option<recopack_bounds::Refutation> {
        let starts = self.schedule.starts();
        // Past `u64` the chip area is left unchecked rather than wrapped;
        // the running area saturates, which only weakens the bound.
        let chip = self.instance.chip();
        let capacity = chip.width().checked_mul(chip.height())?;
        for &tau in starts {
            let area = starts
                .iter()
                .zip(self.instance.tasks())
                .filter(|&(&s, t)| s <= tau && tau < s + t.duration())
                .map(|(_, t)| t.width().saturating_mul(t.height()))
                .fold(0, u64::saturating_add);
            if area > capacity {
                return Some(recopack_bounds::Refutation::Energy {
                    time: tau,
                    area,
                    capacity,
                });
            }
        }
        None
    }

    /// Minimizes the square chip under the fixed starts (MinA&FixedS).
    ///
    /// Returns the minimal side and a verified placement; `None` when the
    /// schedule itself is invalid or the budget ran out.
    pub fn min_square_chip(&self) -> Option<(u64, Placement, SolverStats)> {
        if !self.schedule.respects_precedence(self.instance) {
            return None;
        }
        let mut tally = Tally::default();
        let smallest = largest_side(self.instance);
        // Side by side, no two modules compete for space, so any valid
        // schedule packs there.
        let (side, placement) = gallop(
            smallest,
            smallest,
            side_by_side(self.instance),
            Placement::bounding_square,
            |side| {
                let candidate = self.instance.clone().with_chip(Chip::square(side));
                let solver =
                    FixedSchedule::new(&candidate, self.schedule).with_config(self.config.clone());
                tally.record(solver.feasible_with_stats())
            },
        )
        .flatten()?;
        Some((side, placement, tally.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::Task;

    fn pair_instance(chip: Chip) -> Instance {
        Instance::builder()
            .chip(chip)
            .horizon(4)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 2))
            .precedence("a", "b")
            .build()
            .expect("valid")
    }

    #[test]
    fn valid_schedule_is_packed() {
        let i = pair_instance(Chip::square(2));
        let s = Schedule::new(vec![0, 2]);
        let outcome = FixedSchedule::new(&i, &s).feasible();
        let p = outcome.placement().expect("feasible").clone();
        assert_eq!(p.verify(&i), Ok(()));
        assert_eq!(p.schedule().starts(), s.starts());
    }

    #[test]
    fn schedule_violating_precedence_is_rejected() {
        let i = pair_instance(Chip::square(2));
        let s = Schedule::new(vec![2, 0]);
        assert!(!FixedSchedule::new(&i, &s).feasible().is_feasible());
    }

    #[test]
    fn concurrent_schedule_needs_wider_chip() {
        let i = Instance::builder()
            .chip(Chip::square(2))
            .horizon(2)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 2))
            .build()
            .expect("valid");
        let s = Schedule::new(vec![0, 0]);
        assert!(!FixedSchedule::new(&i, &s).feasible().is_feasible());
        let (side, placement, _) = FixedSchedule::new(&i, &s)
            .min_square_chip()
            .expect("some chip works");
        assert_eq!(side, 4);
        assert!(placement.verify(&i.with_chip(Chip::square(4))).is_ok());
    }

    #[test]
    fn min_chip_for_serial_schedule_matches_task() {
        let i = pair_instance(Chip::square(2));
        let s = Schedule::new(vec![0, 2]);
        let (side, _, _) = FixedSchedule::new(&i, &s)
            .min_square_chip()
            .expect("feasible");
        assert_eq!(side, 2);
    }
}
