//! Pareto-optimal chip-size / execution-time tradeoffs (paper Fig. 7).

use recopack_model::{Chip, Dim, Instance, Placement};

use crate::bracket::{gallop, largest_side, side_by_side, Tally};
use crate::config::{SolverConfig, SolverStats};
use crate::spp::Spp;

/// One Pareto-optimal (square chip side, makespan) point with its witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoPoint {
    /// Square chip side `h` (chip is `h × h`).
    pub side: u64,
    /// Minimal execution time on that chip.
    pub makespan: u64,
    /// A verified placement achieving the point.
    pub placement: Placement,
}

/// Computes all Pareto-optimal (side, makespan) pairs on square chips as a
/// staircase: the minimal makespan `t` at the smallest usable side `s`,
/// then, until no chip can do better, the smallest side above `s` that
/// admits `t − 1` and the minimal makespan there.
///
/// The makespan never grows with the side, so the smallest side after a
/// point `(s, t)` that admits `t − 1` is the next point of the front. It
/// is found by probing sides `s + 1`, `s + 3`, `s + 7`, … at horizon
/// `t − 1` (the next point is often adjacent) and then binary search; the
/// side where all modules fit side by side meets the critical path, so it
/// caps the probes, and every packing found moves the upper end down to
/// its bounding square. The makespan at the new side is then searched
/// between its lower bound and that packing's makespan. Sides in between
/// are never solved, so the number of decisions grows with the number of
/// front points and the logarithm of the gaps between them, not with the
/// chip side.
///
/// The instance's own chip and horizon are ignored. Apply
/// [`Instance::without_precedence`] first to get the paper's dashed curve.
///
/// Returns an empty vector for instances without tasks and when no chip
/// admits a makespan within `u64`, and `None` if any decision hits the
/// configured resource limits.
///
/// # Example
///
/// ```
/// use recopack_core::{pareto_front, SolverConfig};
/// use recopack_model::{Chip, Instance, Task};
///
/// let instance = Instance::builder()
///     .chip(Chip::square(1))
///     .horizon(1)
///     .task(Task::new("a", 2, 2, 2))
///     .task(Task::new("b", 2, 2, 2))
///     .build()?;
/// let front = pareto_front(&instance, &SolverConfig::default()).expect("no limits set");
/// // 2x2 chip -> serialize (T = 4); 4x4 chip -> run in parallel (T = 2).
/// let pairs: Vec<(u64, u64)> = front.iter().map(|p| (p.side, p.makespan)).collect();
/// assert_eq!(pairs, vec![(2, 4), (4, 2)]);
/// # Ok::<(), recopack_model::BuildError>(())
/// ```
pub fn pareto_front(instance: &Instance, config: &SolverConfig) -> Option<Vec<ParetoPoint>> {
    pareto_front_with_stats(instance, config).map(|(front, _, _)| front)
}

/// Like [`pareto_front`], additionally reporting the solver statistics
/// accumulated over the whole staircase and the number of OPP decision
/// problems solved along the way.
pub fn pareto_front_with_stats(
    instance: &Instance,
    config: &SolverConfig,
) -> Option<(Vec<ParetoPoint>, SolverStats, u32)> {
    let mut tally = Tally::default();
    if instance.task_count() == 0 {
        return Some((Vec::new(), tally.stats, tally.decisions));
    }
    // No chip can beat the critical path or the longest task.
    let t_floor = instance
        .critical_path_length()
        .max(instance.sizes(Dim::Time).into_iter().max().unwrap_or(0));
    let widest = side_by_side(instance);
    let square = |side: u64| instance.clone().with_chip(Chip::square(side));

    // On the smallest side every module fits, the serial schedule bounds
    // the first point's makespan, unless it passes `u64`. Then that side
    // may admit no makespan within `u64`, and the front starts at the
    // smallest side that admits horizon `u64::MAX`. If none does, not
    // even with every module side by side, the front is empty.
    let mut side = largest_side(instance);
    let serial = instance
        .sizes(Dim::Time)
        .into_iter()
        .try_fold(0u64, u64::checked_add);
    let mut known = None;
    if serial.is_none() {
        let found = gallop(side, 1, widest, Placement::bounding_square, |side| {
            tally.opp(&square(side).with_horizon(u64::MAX), config)
        })?;
        let Some((wider, witness)) = found else {
            return Some((Vec::new(), tally.stats, tally.decisions));
        };
        side = wider;
        known = Some(witness);
    }
    // The serial schedule or the witness admits a packing, so only a
    // spent budget leaves this without one.
    let (makespan, placement) = Spp::new(&square(side))
        .with_config(config.clone())
        .minimize(&mut tally, serial.unwrap_or(u64::MAX), known)??;
    let mut front = vec![ParetoPoint {
        side,
        makespan,
        placement,
    }];
    loop {
        let last = front.last().expect("the front starts with a point");
        if last.makespan <= t_floor {
            break;
        }
        let goal = last.makespan - 1;
        // Side by side, every module starts as early as precedence allows,
        // so `widest` admits every horizon from `t_floor` up, `goal`
        // included, and the witness admits `goal`.
        let (side, witness) = gallop(
            last.side + 1,
            2,
            widest,
            Placement::bounding_square,
            |side| tally.opp(&square(side).with_horizon(goal), config),
        )??;
        let (makespan, placement) = Spp::new(&square(side))
            .with_config(config.clone())
            .minimize(&mut tally, goal, Some(witness))??;
        front.push(ParetoPoint {
            side,
            makespan,
            placement,
        });
    }
    Some((front, tally.stats, tally.decisions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::Task;

    #[test]
    fn front_is_strictly_decreasing_in_time() {
        let i = Instance::builder()
            .chip(Chip::square(1))
            .horizon(1)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 2))
            .task(Task::new("c", 2, 2, 2))
            .build()
            .expect("valid");
        let front = pareto_front(&i, &SolverConfig::default()).expect("no limits");
        for w in front.windows(2) {
            assert!(w[0].side < w[1].side);
            assert!(w[0].makespan > w[1].makespan);
        }
        // 3 independent 2x2x2 tasks: (2,6) serial; a 4x4 chip already holds
        // three 2x2 footprints at once, so (4,2) is the parallel point.
        let pairs: Vec<(u64, u64)> = front.iter().map(|p| (p.side, p.makespan)).collect();
        assert_eq!(pairs, vec![(2, 6), (4, 2)]);
    }

    #[test]
    fn precedence_changes_the_front() {
        let free = Instance::builder()
            .chip(Chip::square(1))
            .horizon(1)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 2))
            .build()
            .expect("valid");
        let chained = Instance::builder()
            .chip(Chip::square(1))
            .horizon(1)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 2))
            .precedence("a", "b")
            .build()
            .expect("valid");
        let f_free = pareto_front(&free, &SolverConfig::default()).expect("no limits");
        let f_chained = pareto_front(&chained, &SolverConfig::default()).expect("no limits");
        // Chained: serialization is forced, so one point (2, 4).
        assert_eq!(f_chained.len(), 1);
        assert_eq!((f_chained[0].side, f_chained[0].makespan), (2, 4));
        // Free: bigger chips buy time.
        assert_eq!(f_free.len(), 2);
        assert_eq!((f_free[1].side, f_free[1].makespan), (4, 2));
    }

    #[test]
    fn empty_instance_has_empty_front() {
        let i = Instance::builder()
            .chip(Chip::square(1))
            .horizon(1)
            .build()
            .expect("valid");
        assert_eq!(pareto_front(&i, &SolverConfig::default()), Some(Vec::new()));
    }

    #[test]
    fn placements_verify_on_their_points() {
        let i = Instance::builder()
            .chip(Chip::square(1))
            .horizon(1)
            .task(Task::new("a", 1, 2, 3))
            .task(Task::new("b", 2, 1, 1))
            .precedence("a", "b")
            .build()
            .expect("valid");
        let front = pareto_front(&i, &SolverConfig::default()).expect("no limits");
        for p in &front {
            let target = i
                .clone()
                .with_chip(Chip::square(p.side))
                .with_horizon(p.makespan);
            assert_eq!(p.placement.verify(&target), Ok(()));
        }
    }
}
