//! Solver configuration and search statistics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use recopack_bounds::BoundKind;

use crate::telemetry::Telemetry;

/// Depth slots of a [`SolveHandle`]'s node profile; deeper nodes count in
/// the last one, so the profile stays a fixed set of atomics.
pub(crate) const DEPTH_SLOTS: usize = 32;

/// The live view of a solve: its cancellation flag and search counters.
///
/// Clone the handle into [`SolverConfig::handle`], keep a copy, and call
/// [`cancel`](SolveHandle::cancel) or [`progress`](SolveHandle::progress)
/// from any thread. Every worker polls the flag at its budget checkpoints
/// and unwinds with [`LimitKind::Cancelled`]; cancellation is sticky and
/// stops every solve sharing the handle.
///
/// Each search worker adds its [`SolverStats`] deltas to the handle every
/// 64 of its own nodes and when it leaves the search, with relaxed atomic
/// adds only: no clock read, no lock, no allocation. While a solve runs
/// every value only rises, lagging each worker by at most 63 nodes. Once
/// it returns, the handle reads [`SolveProgress::of`] the merged stats,
/// at every thread count. BMP, SPP, fixed-schedule and Pareto solvers
/// clone the caller's configuration per decision, so the handle sums
/// their decisions. Equality is identity, which keeps [`SolverConfig`]
/// `Eq`: a handle equals its clones and nothing else.
#[derive(Clone, Debug, Default)]
pub struct SolveHandle(Arc<HandleState>);

#[derive(Debug, Default)]
struct HandleState {
    cancelled: AtomicBool,
    counts: [AtomicU64; COUNTS],
    searches: AtomicU64,
    /// The deepest branching level reached plus one; 0 before any node.
    levels: AtomicU64,
    depths: [AtomicU64; DEPTH_SLOTS],
}

/// How many [`SolverStats`] counters a handle carries (see [`counts`]).
const COUNTS: usize = 8;

/// The handle's counters of `stats`: nodes, leaves, leaf rejections,
/// propagation events, then the conflicts in
/// [`PruneRule::index`](crate::PruneRule::index) order.
fn counts(stats: &SolverStats) -> [u64; COUNTS] {
    [
        stats.nodes,
        stats.leaves,
        stats.leaf_rejections,
        stats.propagation_events,
        stats.c2_conflicts,
        stats.c3_conflicts,
        stats.c4_conflicts,
        stats.orientation_conflicts,
    ]
}

/// The counters one search worker has added to its handle, plus the nodes
/// per depth slot it expanded since.
#[derive(Debug, Default)]
pub(crate) struct Published {
    counts: [u64; COUNTS],
    fresh_depths: [u64; DEPTH_SLOTS],
}

impl Published {
    /// Counts one node at branching `depth` toward the next publication.
    pub(crate) fn count_node(&mut self, depth: usize) {
        self.fresh_depths[depth.min(DEPTH_SLOTS - 1)] += 1;
    }
}

impl SolveHandle {
    /// A fresh handle: not cancelled, every counter zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: every search polling this handle unwinds at
    /// its next budget checkpoint.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](SolveHandle::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Relaxed)
    }

    /// The counters published so far.
    pub fn progress(&self) -> SolveProgress {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        SolveProgress::new(
            self.0.counts.each_ref().map(load),
            load(&self.0.searches),
            (load(&self.0.levels) as usize).checked_sub(1),
            self.0.depths.each_ref().map(load),
        )
    }

    /// Adds what a worker counted since its last publication; `stats` are
    /// its running totals.
    pub(crate) fn publish(&self, stats: &SolverStats, published: &mut Published) {
        let now = counts(stats).into_iter().zip(&mut published.counts);
        for (counter, (now, was)) in self.0.counts.iter().zip(now) {
            if now > *was {
                counter.fetch_add(now - *was, Ordering::Relaxed);
                *was = now;
            }
        }
        for (counter, fresh) in self.0.depths.iter().zip(&mut published.fresh_depths) {
            if *fresh > 0 {
                counter.fetch_add(std::mem::take(fresh), Ordering::Relaxed);
            }
        }
        let levels = stats.depth_histogram.len() as u64;
        self.0.levels.fetch_max(levels, Ordering::Relaxed);
    }

    /// Counts one finished search.
    pub(crate) fn finish_search(&self) {
        self.0.searches.fetch_add(1, Ordering::Relaxed);
    }
}

impl PartialEq for SolveHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for SolveHandle {}

/// A snapshot of a [`SolveHandle`]: the [`SolverStats`] counters it
/// carries, under their names, plus finished searches and nodes per depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveProgress {
    /// Search-tree nodes expanded.
    pub nodes: u64,
    /// Leaves reaching the full realization check.
    pub leaves: u64,
    /// Leaves rejected by realization or verification.
    pub leaf_rejections: u64,
    /// Propagation events processed.
    pub propagation_events: u64,
    /// Conflicts per propagation rule, indexed by
    /// [`PruneRule::index`](crate::PruneRule::index).
    pub conflicts: [u64; 4],
    /// Searches run to their end: one per decision that reached the search.
    pub searches_finished: u64,
    /// The deepest branching level reached, if any node was expanded.
    pub max_depth: Option<usize>,
    /// Nodes per branching depth; the last slot counts every deeper level.
    pub depths: [u64; DEPTH_SLOTS],
}

impl SolveProgress {
    /// What a handle reads after `searches_finished` searches whose merged
    /// statistics are `stats`.
    pub fn of(stats: &SolverStats, searches_finished: u64) -> Self {
        let mut depths = [0; DEPTH_SLOTS];
        for (depth, &count) in stats.depth_histogram.iter().enumerate() {
            depths[depth.min(DEPTH_SLOTS - 1)] += count;
        }
        Self::new(counts(stats), searches_finished, stats.max_depth(), depths)
    }

    /// Names the counters of a [`counts`] array.
    fn new(
        counts: [u64; COUNTS],
        searches_finished: u64,
        max_depth: Option<usize>,
        depths: [u64; DEPTH_SLOTS],
    ) -> Self {
        let [nodes, leaves, leaf_rejections, propagation_events, c2, c3, c4, orientation] = counts;
        Self {
            nodes,
            leaves,
            leaf_rejections,
            propagation_events,
            conflicts: [c2, c3, c4, orientation],
            searches_finished,
            max_depth,
            depths,
        }
    }

    /// [`depths`](SolveProgress::depths) without its trailing zero slots.
    pub fn depth_profile(&self) -> &[u64] {
        let len = self
            .depths
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |d| d + 1);
        &self.depths[..len]
    }
}

/// Tunables of the packing-class search.
///
/// The per-rule toggles exist for the ablation experiments (DESIGN.md §4,
/// experiment A1): disabling a propagation rule never changes answers, only
/// the size of the search tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverConfig {
    /// Run the lower-bound battery before searching.
    pub use_bounds: bool,
    /// Run the list-scheduling heuristics before searching.
    pub use_heuristics: bool,
    /// Enable the C2 maximum-weight-clique rule during propagation.
    pub clique_rule: bool,
    /// Enable the induced-C4 rule during propagation.
    pub c4_rule: bool,
    /// Enable the D1/D2 orientation implications during propagation.
    pub orientation_rules: bool,
    /// Force pairs to overlap in dimensions where their sizes cannot be
    /// placed side by side (preprocessing).
    pub must_overlap_rule: bool,
    /// Give up after this many search nodes (`None` = unlimited).
    pub node_limit: Option<u64>,
    /// Give up after this much wall time (`None` = unlimited).
    pub time_limit: Option<Duration>,
    /// Symmetry breaking for *twin* tasks (identical shape, identical
    /// precedence relations, no arc between them): when a twin pair is
    /// time-separated, the lower-id task goes first. Sound because swapping
    /// two twins maps feasible packings to feasible packings; automatically
    /// ignored for fixed-schedule problems (where task identities are
    /// pinned by the given start times).
    pub twin_symmetry: bool,
    /// Worker threads for the branch-and-bound. `1` (the default) searches
    /// sequentially; `0` uses the hardware parallelism; `>= 2` runs the
    /// adaptive work-stealing scheduler: every worker searches plain DFS
    /// and *offers* subtrees to idle workers only once its own subtree has
    /// proven deep enough. The verdict and the certificate are identical
    /// for every thread count (see DESIGN.md, "Adaptive work-stealing
    /// parallel search").
    pub threads: usize,
    /// Nodes a worker must expand inside its current work unit before the
    /// unit counts as deep enough to split (parallel mode only). Below the
    /// threshold a subtree is finished by its owner, so small trees never
    /// pay for a state clone — or even a thread spawn, since helpers start
    /// lazily on the first unclaimed offer; above it the worker donates
    /// its highest open branch whenever another worker is starving. The
    /// default (256 nodes, a fraction of a millisecond of search) is the
    /// point below which cloning a state and waking a thread cannot pay
    /// for itself. Must be `>= 1`.
    pub split_after_nodes: u64,
    /// How many queued-but-unclaimed work units the scheduler keeps
    /// *beyond* the number of currently idle workers. `0` (the default)
    /// splits strictly on demand — a worker must actually be waiting — and
    /// keeps speculative clones to a minimum; small values trade a few
    /// extra clones for hiding the donor's inter-node latency.
    pub split_backlog: usize,
    /// Structured telemetry sink for search events (see
    /// [`crate::telemetry`]). Disabled by default; aggregate counters in
    /// [`SolverStats`] are collected either way.
    pub telemetry: Telemetry,
    /// Collect per-phase wall-clock timings (`propagate_ns`, `bounds_ns`,
    /// `realize_ns`, per-rule prune time) into [`SolverStats`]. Off by
    /// default: with profiling off and [`Telemetry::none`] installed the
    /// hot path performs **zero** extra clock reads. Phase timings are
    /// informational — unlike the event *counts*, they are not
    /// thread-count invariant (see DESIGN.md, "Tracing and profiling").
    pub profile: bool,
    /// The solve's live view: a cancellation flag polled at every budget
    /// checkpoint plus the search counters the workers publish. Install a
    /// clone of a caller-held [`SolveHandle`] to watch or stop a solve from
    /// outside (`recopack serve` does both for `/jobs/{id}/progress` and
    /// `DELETE /jobs/{id}`; the CLI's `--progress` reads it).
    pub handle: SolveHandle,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            use_bounds: true,
            use_heuristics: true,
            clique_rule: true,
            c4_rule: true,
            orientation_rules: true,
            must_overlap_rule: true,
            node_limit: None,
            time_limit: None,
            twin_symmetry: true,
            threads: 1,
            split_after_nodes: 256,
            split_backlog: 0,
            telemetry: Telemetry::none(),
            profile: false,
            handle: SolveHandle::new(),
        }
    }
}

impl SolverConfig {
    /// A configuration with every acceleration disabled — pure DFS with only
    /// the C3 rule and full leaf checks. Used as the ablation baseline.
    pub fn bare() -> Self {
        Self {
            use_bounds: false,
            use_heuristics: false,
            clique_rule: false,
            c4_rule: false,
            orientation_rules: false,
            must_overlap_rule: false,
            node_limit: None,
            time_limit: None,
            twin_symmetry: false,
            threads: 1,
            split_after_nodes: 256,
            split_backlog: 0,
            telemetry: Telemetry::none(),
            profile: false,
            handle: SolveHandle::new(),
        }
    }

    /// The number of worker threads this configuration asks for, with `0`
    /// resolved to the hardware parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Which resource budget ended a search early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// [`SolverConfig::node_limit`] was exhausted.
    Nodes,
    /// [`SolverConfig::time_limit`] elapsed.
    Time,
    /// [`SolverConfig::handle`] was cancelled from outside.
    Cancelled,
}

impl std::fmt::Display for LimitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Nodes => write!(f, "node limit"),
            Self::Time => write!(f, "time limit"),
            Self::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Counters describing one solver run.
///
/// Collected per worker thread and merged with [`SolverStats::accumulate`];
/// for a search that runs to exhaustion (no limits, no feasible leaf) the
/// merged totals are identical for every thread count, because the explored
/// tree is. Serialized by
/// [`telemetry::stats_to_json`](crate::telemetry::stats_to_json) under the
/// versioned telemetry schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Search-tree nodes expanded (branching decisions taken).
    pub nodes: u64,
    /// Leaves reaching the full realization check.
    pub leaves: u64,
    /// Conflicts raised by the C2 clique rule.
    pub c2_conflicts: u64,
    /// Conflicts raised by the C3 rule.
    pub c3_conflicts: u64,
    /// Conflicts raised by the induced-C4 rule.
    pub c4_conflicts: u64,
    /// Conflicts raised by orientation (D1/D2) implications.
    pub orientation_conflicts: u64,
    /// Leaves rejected by the realization / verification step.
    pub leaf_rejections: u64,
    /// Edge states fixed in total — by propagation cascades plus the one
    /// branched slot per node (so `propagated_fixes - nodes` is the pure
    /// propagation yield).
    pub propagated_fixes: u64,
    /// Arcs oriented in comparability edges (precedence seeds, branching
    /// consequences, and D1/D2 implications).
    pub arc_fixations: u64,
    /// Propagation events processed (queue pops inside cascades: slot
    /// fixations and arc orientations whose consequences were closed).
    /// Thread-count invariant for exhausted searches, like `nodes`.
    pub propagation_events: u64,
    /// Budget checks charged at node entry (each polls the global node and
    /// time budgets once). In-cascade budget polls are *not* counted here:
    /// their number depends on how cascades split across workers, which
    /// would make the totals thread-count dependent.
    pub budget_checks: u64,
    /// Nodes expanded per branching depth: `depth_histogram[d]` counts the
    /// nodes whose branching decision was the `d`-th on its path. Depths
    /// are global — a stolen work unit resumes at its donor's depth — so
    /// the histogram matches the sequential one for exhausted searches.
    pub depth_histogram: Vec<u64>,
    /// Whether the answer came from bounds (`true`) without any search.
    pub refuted_by_bounds: bool,
    /// Which lower-bound family refuted the instance, when
    /// `refuted_by_bounds` is set.
    pub refuting_bound: Option<BoundKind>,
    /// Whether the answer came from the heuristic without any search.
    pub solved_by_heuristic: bool,
    /// Wall-clock nanoseconds spent in *successful* propagation cascades
    /// (branch consequences and root seeding). Collected only when
    /// [`SolverConfig::profile`] is set; always zero otherwise. Timings
    /// are informational — they sum worker-local clocks, so they are not
    /// thread-count invariant and are excluded from determinism claims.
    pub propagate_ns: u64,
    /// Wall-clock nanoseconds spent in the stage-1 lower-bound battery
    /// (profiling only).
    pub bounds_ns: u64,
    /// Wall-clock nanoseconds spent realizing and verifying leaves
    /// (profiling only).
    pub realize_ns: u64,
    /// Wall-clock nanoseconds of propagation cascades that ended in a
    /// prune, attributed to the rule that fired, indexed by
    /// [`PruneRule::index`](crate::telemetry::PruneRule::index)
    /// (profiling only). Disjoint from `propagate_ns`.
    pub prune_ns: [u64; 4],
}

impl SolverStats {
    /// Total conflicts over all propagation rules.
    pub fn conflicts(&self) -> u64 {
        self.c2_conflicts + self.c3_conflicts + self.c4_conflicts + self.orientation_conflicts
    }

    /// Records one expanded node at branching `depth`.
    pub(crate) fn record_node(&mut self, depth: usize) {
        self.nodes += 1;
        if self.depth_histogram.len() <= depth {
            self.depth_histogram.resize(depth + 1, 0);
        }
        self.depth_histogram[depth] += 1;
    }

    /// Adds the counters of `part` — used to merge per-thread statistics of
    /// a parallel search and per-decision statistics of a binary search.
    pub fn accumulate(&mut self, part: &SolverStats) {
        self.nodes += part.nodes;
        self.leaves += part.leaves;
        self.c2_conflicts += part.c2_conflicts;
        self.c3_conflicts += part.c3_conflicts;
        self.c4_conflicts += part.c4_conflicts;
        self.orientation_conflicts += part.orientation_conflicts;
        self.leaf_rejections += part.leaf_rejections;
        self.propagated_fixes += part.propagated_fixes;
        self.arc_fixations += part.arc_fixations;
        self.propagation_events += part.propagation_events;
        self.budget_checks += part.budget_checks;
        if self.depth_histogram.len() < part.depth_histogram.len() {
            self.depth_histogram.resize(part.depth_histogram.len(), 0);
        }
        for (total, &count) in self.depth_histogram.iter_mut().zip(&part.depth_histogram) {
            *total += count;
        }
        self.refuted_by_bounds |= part.refuted_by_bounds;
        if self.refuting_bound.is_none() {
            self.refuting_bound = part.refuting_bound;
        }
        self.solved_by_heuristic |= part.solved_by_heuristic;
        self.propagate_ns += part.propagate_ns;
        self.bounds_ns += part.bounds_ns;
        self.realize_ns += part.realize_ns;
        for (total, &ns) in self.prune_ns.iter_mut().zip(&part.prune_ns) {
            *total += ns;
        }
    }

    /// Total profiled time over all phases, in nanoseconds (zero unless
    /// [`SolverConfig::profile`] was set).
    pub fn profiled_ns(&self) -> u64 {
        self.propagate_ns + self.bounds_ns + self.realize_ns + self.prune_ns.iter().sum::<u64>()
    }

    /// The deepest branching level reached, if any node was expanded.
    pub fn max_depth(&self) -> Option<usize> {
        self.depth_histogram.iter().rposition(|&count| count > 0)
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodes={} leaves={} conflicts(c2={}, c3={}, c4={}, orient={}) leaf_rejections={} propagated={} arcs={} max_depth={}",
            self.nodes,
            self.leaves,
            self.c2_conflicts,
            self.c3_conflicts,
            self.c4_conflicts,
            self.orientation_conflicts,
            self.leaf_rejections,
            self.propagated_fixes,
            self.arc_fixations,
            self.max_depth().map_or(0, |d| d + 1)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let c = SolverConfig::default();
        assert!(c.clique_rule && c.c4_rule && c.orientation_rules && c.must_overlap_rule);
        assert!(c.use_bounds && c.use_heuristics);
        assert_eq!(c.node_limit, None);
    }

    #[test]
    fn bare_disables_accelerations() {
        let c = SolverConfig::bare();
        assert!(!c.clique_rule && !c.c4_rule && !c.orientation_rules);
        assert!(!c.use_bounds && !c.use_heuristics);
        assert!(!c.twin_symmetry);
    }

    #[test]
    fn threads_default_to_sequential() {
        assert_eq!(SolverConfig::default().threads, 1);
        assert_eq!(SolverConfig::default().effective_threads(), 1);
        let auto = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        assert!(auto.effective_threads() >= 1);
        let four = SolverConfig {
            threads: 4,
            ..SolverConfig::default()
        };
        assert_eq!(four.effective_threads(), 4);
    }

    #[test]
    fn stats_accumulate_sums_counters() {
        let mut total = SolverStats {
            nodes: 10,
            c2_conflicts: 1,
            arc_fixations: 3,
            depth_histogram: vec![4, 6],
            ..SolverStats::default()
        };
        let part = SolverStats {
            nodes: 5,
            leaves: 2,
            arc_fixations: 2,
            propagation_events: 7,
            budget_checks: 5,
            depth_histogram: vec![1, 1, 3],
            refuting_bound: Some(recopack_bounds::BoundKind::Volume),
            solved_by_heuristic: true,
            ..SolverStats::default()
        };
        total.accumulate(&part);
        assert_eq!(total.nodes, 15);
        assert_eq!(total.leaves, 2);
        assert_eq!(total.c2_conflicts, 1);
        assert_eq!(total.arc_fixations, 5);
        assert_eq!(total.propagation_events, 7);
        assert_eq!(total.budget_checks, 5);
        assert_eq!(total.depth_histogram, vec![5, 7, 3]);
        assert_eq!(
            total.refuting_bound,
            Some(recopack_bounds::BoundKind::Volume)
        );
        assert!(total.solved_by_heuristic);
    }

    #[test]
    fn accumulate_keeps_the_first_refuting_bound() {
        let mut total = SolverStats {
            refuting_bound: Some(recopack_bounds::BoundKind::Dff),
            ..SolverStats::default()
        };
        total.accumulate(&SolverStats {
            refuting_bound: Some(recopack_bounds::BoundKind::Volume),
            ..SolverStats::default()
        });
        assert_eq!(total.refuting_bound, Some(recopack_bounds::BoundKind::Dff));
    }

    #[test]
    fn max_depth_tracks_the_histogram() {
        assert_eq!(SolverStats::default().max_depth(), None);
        let s = SolverStats {
            depth_histogram: vec![1, 2, 0, 4, 0],
            ..SolverStats::default()
        };
        assert_eq!(s.max_depth(), Some(3));
    }

    #[test]
    fn profiling_is_off_by_default_and_timings_accumulate() {
        assert!(!SolverConfig::default().profile);
        assert!(!SolverConfig::bare().profile);
        let mut total = SolverStats {
            propagate_ns: 5,
            prune_ns: [1, 0, 0, 0],
            ..SolverStats::default()
        };
        total.accumulate(&SolverStats {
            propagate_ns: 7,
            bounds_ns: 2,
            realize_ns: 3,
            prune_ns: [0, 4, 0, 0],
            ..SolverStats::default()
        });
        assert_eq!(total.propagate_ns, 12);
        assert_eq!(total.prune_ns, [1, 4, 0, 0]);
        assert_eq!(total.profiled_ns(), 12 + 2 + 3 + 1 + 4);
    }

    #[test]
    fn limit_kinds_name_their_budget() {
        assert_eq!(LimitKind::Nodes.to_string(), "node limit");
        assert_eq!(LimitKind::Time.to_string(), "time limit");
        assert_eq!(LimitKind::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn handle_cancellation_is_sticky_and_shared_between_clones() {
        let handle = SolveHandle::new();
        assert!(!handle.is_cancelled());
        let clone = handle.clone();
        assert_eq!(handle, clone);
        clone.cancel();
        assert!(handle.is_cancelled());
        clone.cancel();
        assert!(clone.is_cancelled());
        // A freshly created handle is a distinct solve.
        assert_ne!(handle, SolveHandle::new());
    }

    #[test]
    fn handle_publishes_deltas_and_clamps_deep_nodes_into_the_last_slot() {
        let handle = SolveHandle::new();
        assert_eq!(handle.progress(), SolveProgress::default());
        let (mut stats, mut published) = (SolverStats::default(), Published::default());
        for depth in [
            0,
            2,
            2,
            DEPTH_SLOTS - 1,
            DEPTH_SLOTS,
            DEPTH_SLOTS + 1,
            1_000,
        ] {
            stats.record_node(depth);
            published.count_node(depth);
        }
        stats.c3_conflicts = 2;
        handle.publish(&stats, &mut published);
        let progress = handle.progress();
        assert_eq!(progress, SolveProgress::of(&stats, 0));
        let profile = progress.depth_profile();
        assert_eq!(profile.len(), DEPTH_SLOTS, "the profile never grows");
        assert_eq!(profile[..3], [1, 0, 2]);
        // The last in-range depth and everything beyond it share a slot.
        assert_eq!(profile[DEPTH_SLOTS - 1], 4);
        assert_eq!(progress.max_depth, Some(1_000));
        // Unchanged totals add nothing; new counts add once.
        handle.publish(&stats, &mut published);
        assert_eq!(handle.progress(), progress);
        stats.record_node(1);
        published.count_node(1);
        handle.finish_search();
        handle.publish(&stats, &mut published);
        assert_eq!(handle.progress(), SolveProgress::of(&stats, 1));
    }

    #[test]
    fn stats_aggregate_conflicts() {
        let s = SolverStats {
            c2_conflicts: 1,
            c3_conflicts: 2,
            c4_conflicts: 3,
            orientation_conflicts: 4,
            ..SolverStats::default()
        };
        assert_eq!(s.conflicts(), 10);
        assert!(s.to_string().contains("c3=2"));
    }
}
