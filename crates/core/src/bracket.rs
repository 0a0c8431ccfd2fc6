//! The monotone search shared by BMP, SPP, the Pareto staircase and the
//! fixed-schedule chip minimization.
//!
//! Each optimizer looks for the smallest value of one parameter (chip side
//! or horizon) that admits a packing, and feasibility is monotone in that
//! parameter. A packing found at value `v` is itself a certificate for a
//! possibly smaller value: its bounding square, or its makespan. The search
//! moves its upper end there at once instead of to `v`.

use recopack_model::{Instance, Placement, Task};

use crate::config::{SolverConfig, SolverStats};
use crate::opp::{Opp, SolveOutcome};

/// The answer of one probe: `None` when a budget ran out, else the packing
/// found, or `None` when there is none.
pub(crate) type Probe = Option<Option<Placement>>;

/// The answer of a [`bracket`] or [`gallop`]: `None` when a budget ran
/// out, else the least value that admits a packing with a packing valid
/// there, or `None` when the upper end admits none.
pub(crate) type Least = Option<Option<(u64, Placement)>>;

/// A run of decision solves: their merged statistics and their number.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) stats: SolverStats,
    pub(crate) decisions: u32,
}

impl Tally {
    /// Records one decision solve.
    pub(crate) fn record(&mut self, (outcome, stats): (SolveOutcome, SolverStats)) -> Probe {
        self.decisions += 1;
        self.stats.accumulate(&stats);
        match outcome {
            SolveOutcome::Feasible(p) => Some(Some(p)),
            SolveOutcome::Infeasible(_) => Some(None),
            SolveOutcome::ResourceLimit(_) => None,
        }
    }

    /// Decides `candidate` through the OPP pipeline and records it.
    pub(crate) fn opp(&mut self, candidate: &Instance, config: &SolverConfig) -> Probe {
        self.record(
            Opp::new(candidate)
                .with_config(config.clone())
                .solve_with_stats(),
        )
    }
}

/// The smallest square side every module fits on by itself: no chip below
/// it admits a packing.
pub(crate) fn largest_side(instance: &Instance) -> u64 {
    instance
        .tasks()
        .iter()
        .map(|t| t.width().max(t.height()))
        .max()
        .unwrap_or(0)
}

/// The smallest square side on which every module fits side by side, in
/// one row or one column. No two modules compete for space there, so every
/// horizon from the critical path up admits a packing.
pub(crate) fn side_by_side(instance: &Instance) -> u64 {
    let tasks = instance.tasks();
    let sum = |f: fn(&Task) -> u64| tasks.iter().map(f).fold(0u64, u64::saturating_add);
    let max = |f: fn(&Task) -> u64| tasks.iter().map(f).max().unwrap_or(0);
    let row = sum(|t| t.width()).max(max(|t| t.height()));
    let column = sum(|t| t.height()).max(max(|t| t.width()));
    row.min(column)
}

/// The smallest value in `lo..=hi` that admits a packing, with a packing
/// valid there.
///
/// Values below `lo` must admit none, and `hi` must admit one; `known` is
/// a packing for `hi` when one is in hand. Every packing found moves `hi`
/// down to `measure` of it (its bounding square or makespan), which it
/// certifies by itself. A packing in hand at the start is often optimal
/// already, so the first probe goes just below it; the rest is binary
/// search. `hi` is probed only when no packing for it is in hand at the
/// end.
///
/// `None` when a probe ran out of budget; `Some(None)` when `hi` turned
/// out to admit no packing after all.
pub(crate) fn bracket(
    mut lo: u64,
    mut hi: u64,
    known: Option<Placement>,
    measure: fn(&Placement) -> u64,
    mut probe: impl FnMut(u64) -> Probe,
) -> Least {
    debug_assert!(lo <= hi, "empty bracket {lo}..={hi}");
    let mut next = None;
    if let Some(p) = &known {
        hi = measure(p).min(hi);
        next = hi.checked_sub(1);
    }
    let mut best = known;
    while lo < hi {
        let mid = next.take().unwrap_or(lo + (hi - lo) / 2);
        match probe(mid)? {
            Some(p) => {
                hi = measure(&p);
                debug_assert!(lo <= hi, "a packing below the bracket's floor {lo}");
                best = Some(p);
            }
            None => lo = mid + 1,
        }
    }
    Some(match best {
        Some(p) => Some((hi, p)),
        None => probe(hi)?.map(|p| (hi, p)),
    })
}

/// Probes `lo`, `lo + step`, `lo + 3 step`, `lo + 7 step`, ... until a
/// packing is found or `cap` is reached; then [`bracket`]s the rest.
/// `Some(None)` when not even `cap` admits a packing.
pub(crate) fn gallop(
    lo: u64,
    step: u64,
    cap: u64,
    measure: fn(&Placement) -> u64,
    mut probe: impl FnMut(u64) -> Probe,
) -> Least {
    let (mut lo, mut hi, mut step, mut known) = (lo, lo.min(cap), step.max(1), None);
    while hi < cap {
        match probe(hi)? {
            Some(p) => {
                known = Some(p);
                break;
            }
            None => {
                lo = hi + 1;
                hi = hi.saturating_add(step).min(cap);
                step = step.saturating_mul(2);
            }
        }
    }
    bracket(lo, hi, known, measure, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::Chip;

    /// A probe over a fake monotone predicate: values from `threshold` up
    /// admit the one-task packing whose "measure" is its origin's x.
    fn fake(threshold: u64, witness_at: u64, log: &mut Vec<u64>) -> impl FnMut(u64) -> Probe + '_ {
        let instance = Instance::builder()
            .chip(Chip::square(u64::MAX / 2))
            .horizon(1)
            .task(Task::new("a", 1, 1, 1))
            .build()
            .expect("valid");
        move |v| {
            log.push(v);
            Some(
                (v >= threshold).then(|| {
                    Placement::new(vec![[witness_at.clamp(threshold, v), 0, 0]], &instance)
                }),
            )
        }
    }

    fn origin_x(p: &Placement) -> u64 {
        p.task_box(0).origin[0]
    }

    #[test]
    fn finds_the_threshold() {
        for threshold in 3..=20 {
            let mut log = Vec::new();
            let (v, p) = bracket(3, 20, None, origin_x, fake(threshold, u64::MAX, &mut log))
                .expect("no budget")
                .expect("a packing");
            assert_eq!(v, threshold);
            assert_eq!(origin_x(&p), threshold);
            assert!(log.len() <= 5, "{threshold}: {log:?}");
        }
    }

    #[test]
    fn witnesses_shrink_the_upper_end() {
        // The first probe's packing already certifies the threshold; one
        // infeasible probe below it finishes the search.
        let mut log = Vec::new();
        let (v, _) = bracket(0, 1000, None, origin_x, fake(7, 7, &mut log))
            .expect("no budget")
            .expect("a packing");
        assert_eq!(v, 7);
        assert_eq!(log, [500, 3, 5, 6]);
    }

    #[test]
    fn a_known_packing_is_checked_just_below_first() {
        let mut log = Vec::new();
        let instance = Instance::builder()
            .chip(Chip::square(100))
            .horizon(1)
            .task(Task::new("a", 1, 1, 1))
            .build()
            .expect("valid");
        let known = Placement::new(vec![[40, 0, 0]], &instance);
        let (v, _) = bracket(0, 90, Some(known), origin_x, fake(40, 40, &mut log))
            .expect("no budget")
            .expect("a packing");
        assert_eq!(v, 40);
        assert_eq!(log, [39]);
    }

    #[test]
    fn a_known_packing_at_the_floor_needs_no_probe() {
        let mut log = Vec::new();
        let instance = Instance::builder()
            .chip(Chip::square(10))
            .horizon(1)
            .task(Task::new("a", 1, 1, 1))
            .build()
            .expect("valid");
        let known = Placement::new(vec![[4, 0, 0]], &instance);
        let (v, _) = bracket(4, 9, Some(known), origin_x, fake(4, 4, &mut log))
            .expect("no budget")
            .expect("a packing");
        assert_eq!(v, 4);
        assert!(log.is_empty());
    }

    #[test]
    fn the_upper_end_is_probed_only_when_uncertified() {
        let mut log = Vec::new();
        let (v, _) = bracket(5, 9, None, origin_x, fake(9, 9, &mut log))
            .expect("no budget")
            .expect("a packing");
        assert_eq!(v, 9);
        assert_eq!(log, [7, 8, 9]);
        let mut log = Vec::new();
        assert_eq!(
            bracket(5, 9, None, origin_x, fake(10, 10, &mut log)),
            Some(None)
        );
    }

    #[test]
    fn gallop_doubles_then_brackets() {
        let mut log = Vec::new();
        let (v, _) = gallop(3, 3, 100, origin_x, fake(13, u64::MAX, &mut log))
            .expect("no budget")
            .expect("a packing");
        assert_eq!(v, 13);
        // 3, 6, 12 admit nothing and 24 does; the packing found there is
        // checked just below first, then [13, 23] is bisected.
        assert_eq!(log, [3, 6, 12, 24, 23, 18, 15, 14, 13]);
        let mut log = Vec::new();
        let (v, _) = gallop(4, 1, 100, origin_x, fake(5, 5, &mut log))
            .expect("no budget")
            .expect("a packing");
        assert_eq!(v, 5);
        assert_eq!(log, [4, 5]);
    }

    #[test]
    fn side_by_side_takes_the_narrower_arrangement() {
        let instance = Instance::builder()
            .chip(Chip::square(1))
            .horizon(1)
            .task(Task::new("a", 4, 1, 1))
            .task(Task::new("b", 4, 2, 1))
            .build()
            .expect("valid");
        // A column is 4 wide and 3 tall; a row would be 8 wide.
        assert_eq!(side_by_side(&instance), 4);
    }
}
