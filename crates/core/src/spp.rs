//! SPP: strip packing — the minimal makespan on a fixed chip
//! (paper: MinT&FindS, the problem behind Figure 7).

use recopack_model::{Dim, Instance, Placement};

use crate::bracket::{bracket, Least, Tally};
use crate::config::{SolverConfig, SolverStats};

/// Result of a makespan minimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SppResult {
    /// Minimal makespan (execution time).
    pub makespan: u64,
    /// A verified placement achieving it.
    pub placement: Placement,
    /// Accumulated statistics over all decision solves.
    pub stats: SolverStats,
    /// Number of OPP decision problems solved.
    pub decisions: u32,
}

/// Minimizes the execution time `T` such that all tasks fit `W × H × T`
/// (search between the lower bound and the serial schedule; the instance's
/// own horizon is ignored).
///
/// # Example
///
/// ```
/// use recopack_core::Spp;
/// use recopack_model::{benchmarks, Chip};
///
/// // Table 1 / Fig. 7: on a 32x32 chip the DE benchmark needs 6 cycles.
/// let instance = benchmarks::de(Chip::square(32), 1).with_transitive_closure();
/// let result = Spp::new(&instance).solve().expect("fits the chip");
/// assert_eq!(result.makespan, 6);
/// ```
#[derive(Debug)]
pub struct Spp<'a> {
    instance: &'a Instance,
    config: SolverConfig,
}

impl<'a> Spp<'a> {
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

    /// An upper bound used to start the search: serialize everything in
    /// topological order. Saturates at `u64::MAX`, where it may admit no
    /// packing; [`Spp::solve`] then answers `None`.
    pub fn serial_upper_bound(&self) -> u64 {
        self.instance
            .sizes(Dim::Time)
            .into_iter()
            .fold(0, u64::saturating_add)
    }

    /// A lower bound from the critical path, the longest single task, and
    /// the volume argument.
    pub fn lower_bound(&self) -> u64 {
        let critical = self.instance.critical_path_length();
        let longest = self
            .instance
            .sizes(Dim::Time)
            .into_iter()
            .max()
            .unwrap_or(0);
        // A chip area past `u64` leaves the volume bound silent.
        let chip = self.instance.chip();
        let volume = match chip.width().checked_mul(chip.height()) {
            Some(area) if area > 0 => self.instance.total_volume().div_ceil(area),
            _ => 0,
        };
        critical.max(longest).max(volume)
    }

    /// Finds the minimal makespan; `None` when some task does not fit the
    /// chip spatially (no horizon helps), when no makespan within `u64`
    /// admits a packing, or when the budget ran out.
    pub fn solve(&self) -> Option<SppResult> {
        let chip = self.instance.chip();
        if self
            .instance
            .tasks()
            .iter()
            .any(|t| t.width() > chip.width() || t.height() > chip.height())
        {
            return None;
        }
        let mut tally = Tally::default();
        if self.instance.task_count() == 0 {
            let empty = self.instance.clone().with_horizon(0);
            return Some(SppResult {
                makespan: 0,
                placement: Placement::new(vec![], &empty),
                stats: tally.stats,
                decisions: tally.decisions,
            });
        }
        // The serial schedule is feasible once tasks fit spatially, unless
        // its length saturated.
        let (makespan, placement) = self
            .minimize(&mut tally, self.serial_upper_bound(), None)
            .flatten()?;
        Some(SppResult {
            makespan,
            placement,
            stats: tally.stats,
            decisions: tally.decisions,
        })
    }

    /// The minimal makespan, [`bracket`]ed between the lower bound and
    /// `hi`, a horizon that admits a packing (`known`, when one is in
    /// hand). Every packing found moves the upper end down to its makespan.
    pub(crate) fn minimize(&self, tally: &mut Tally, hi: u64, known: Option<Placement>) -> Least {
        bracket(
            self.lower_bound(),
            hi,
            known,
            Placement::makespan,
            |horizon| tally.opp(&self.instance.clone().with_horizon(horizon), &self.config),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::{benchmarks, Chip, Task};

    #[test]
    fn de_on_16_needs_14() {
        let i = benchmarks::de(Chip::square(16), 1).with_transitive_closure();
        let r = Spp::new(&i).solve().expect("fits");
        assert_eq!(r.makespan, 14);
        assert!(r.placement.verify(&i.with_horizon(14)).is_ok());
    }

    #[test]
    fn de_without_precedence_on_16_needs_13() {
        let i = benchmarks::de(Chip::square(16), 1).without_precedence();
        let r = Spp::new(&i).solve().expect("fits");
        assert_eq!(r.makespan, 13);
    }

    #[test]
    fn chip_too_small_returns_none() {
        let i = benchmarks::de(Chip::square(15), 1);
        assert_eq!(Spp::new(&i).solve(), None);
    }

    #[test]
    fn single_task_makespan_is_duration() {
        let i = Instance::builder()
            .chip(Chip::square(4))
            .horizon(1)
            .task(Task::new("a", 2, 2, 5))
            .build()
            .expect("valid");
        let r = Spp::new(&i).solve().expect("fits");
        assert_eq!(r.makespan, 5);
    }

    #[test]
    fn bounds_bracket_the_answer() {
        let i = benchmarks::de(Chip::square(17), 1).with_transitive_closure();
        let s = Spp::new(&i);
        assert!(s.lower_bound() <= 13);
        assert!(s.serial_upper_bound() >= 13);
        let r = s.solve().expect("fits");
        assert_eq!(r.makespan, 13);
    }
}
