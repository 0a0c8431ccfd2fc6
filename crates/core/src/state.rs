//! The searched object: three-valued edge states plus orientations, with a
//! trail for O(1) backtracking.
//!
//! Beyond the tri-state table and the materialized component/comparability
//! graphs, the state incrementally maintains the *oriented arc digraph* of
//! every dimension: insertion-ordered arc lists, out-/in-neighbor bitsets,
//! and vertex-weighted longest-path labels (`dist[v]` = weight of the
//! heaviest oriented chain ending at `v`, counting `v` itself). Each
//! [`PackingState::orient_arc`] call updates these in O(affected) and logs
//! every change on the trail, so [`PackingState::rollback`] restores them
//! exactly — this is what lets the search answer "does any oriented chain
//! exceed the capacity?" in O(1) instead of recomputing a longest path from
//! scratch per propagation event (see DESIGN.md, "Incremental propagation").

use recopack_graph::{BitSet, DenseGraph, PairIndex};

/// State of one (task pair, dimension) slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeState {
    /// Not yet decided.
    Unassigned,
    /// Component edge: the projections overlap in this dimension.
    Component,
    /// Comparability edge: the projections are disjoint in this dimension.
    Comparability,
}

/// Orientation of a comparability edge, relative to the pair's `(lo, hi)`
/// vertex order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orient {
    /// Not yet oriented.
    None,
    /// `lo` comes entirely before `hi`.
    Forward,
    /// `hi` comes entirely before `lo`.
    Backward,
}

#[derive(Clone)]
enum TrailEntry {
    State {
        dim: usize,
        pair: usize,
    },
    /// An orientation plus its arc-digraph side effects: the arc itself is
    /// popped from `arc_list` and the adjacency bitsets (the arc is always
    /// the most recent entry when this unwinds — trail and arc list are
    /// both LIFO), `closed_cycle` undoes the cycle counter.
    Orient {
        dim: usize,
        pair: usize,
        closed_cycle: bool,
    },
    /// A longest-path label overwritten during a relaxation cascade.
    Dist {
        dim: usize,
        vertex: usize,
        old: u64,
    },
    /// The running per-dimension maximum overwritten during a cascade.
    MaxDist {
        dim: usize,
        old: u64,
    },
}

/// The packing-class search state over `n` tasks.
///
/// Keeps, per dimension, the tri-state of every pair, the orientation of
/// comparability edges (only the time dimension orients in this paper, but
/// the structure is dimension-uniform as §4 notes), and materialized
/// [`DenseGraph`]s of the *fixed* component and comparability edges so that
/// propagation rules can run graph queries directly. A trail records every
/// mutation for exact rollback.
///
/// The state is `Clone` so that the parallel search can hand each stolen
/// work unit an independent copy (the clone carries the trail, so rollbacks
/// to marks taken before cloning behave identically in the copy).
#[derive(Clone)]
pub struct PackingState {
    n: usize,
    idx: PairIndex,
    states: [Vec<EdgeState>; 3],
    orients: [Vec<Orient>; 3],
    component: [DenseGraph; 3],
    comparability: [DenseGraph; 3],
    unassigned: usize,
    trail: Vec<TrailEntry>,
    /// Per-dimension vertex weights for the longest-path labels (task
    /// extents in space dimensions, durations in time). All zeros under
    /// [`PackingState::new`].
    sizes: [Vec<u64>; 3],
    /// Oriented arcs per dimension, in insertion order (`(u, v)` = "u
    /// before v"). Grows/shrinks in lockstep with the trail.
    arc_list: [Vec<(usize, usize)>; 3],
    /// Out-neighbors of each vertex in the oriented arc digraph.
    out: [Vec<BitSet>; 3],
    /// In-neighbors of each vertex in the oriented arc digraph.
    inn: [Vec<BitSet>; 3],
    /// `dist[d][v]`: weight of the heaviest oriented chain ending at `v`
    /// (counting `v`). Frozen while the digraph is cyclic.
    dist: [Vec<u64>; 3],
    /// Running maximum of `dist[d]`.
    max_dist: [u64; 3],
    /// Number of trail-live arcs that closed a cycle at insertion; the
    /// digraph is acyclic iff this is zero.
    cycle_arcs: [usize; 3],
    /// Reusable cascade worklist (contents meaningless between calls).
    scratch_stack: Vec<usize>,
    /// Reusable visited set for the cycle check.
    scratch_visited: BitSet,
}

impl PackingState {
    /// Creates the all-unassigned state for `n` tasks with zero vertex
    /// weights (chain labels stay zero; fine for tests that only exercise
    /// edge states).
    #[cfg(test)]
    pub fn new(n: usize) -> Self {
        Self::with_sizes(n, std::array::from_fn(|_| vec![0; n]))
    }

    /// Creates the all-unassigned state with per-dimension vertex weights
    /// for the longest-path labels.
    ///
    /// # Panics
    ///
    /// Panics if any weight vector's length differs from `n`.
    pub fn with_sizes(n: usize, sizes: [Vec<u64>; 3]) -> Self {
        for s in &sizes {
            assert_eq!(s.len(), n, "one weight per task per dimension");
        }
        let idx = PairIndex::new(n);
        let m = idx.pair_count();
        let dist: [Vec<u64>; 3] = std::array::from_fn(|d| sizes[d].clone());
        let max_dist = std::array::from_fn(|d| sizes[d].iter().copied().max().unwrap_or(0));
        Self {
            n,
            idx,
            states: std::array::from_fn(|_| vec![EdgeState::Unassigned; m]),
            orients: std::array::from_fn(|_| vec![Orient::None; m]),
            component: std::array::from_fn(|_| DenseGraph::new(n)),
            comparability: std::array::from_fn(|_| DenseGraph::new(n)),
            unassigned: 3 * m,
            trail: Vec::new(),
            sizes,
            arc_list: std::array::from_fn(|_| Vec::new()),
            out: std::array::from_fn(|_| vec![BitSet::new(n); n]),
            inn: std::array::from_fn(|_| vec![BitSet::new(n); n]),
            dist,
            max_dist,
            cycle_arcs: [0; 3],
            scratch_stack: Vec::new(),
            scratch_visited: BitSet::new(n),
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.n
    }

    /// The pair indexing shared with callers.
    pub fn pair_index(&self) -> PairIndex {
        self.idx
    }

    /// Number of still-unassigned (pair, dimension) slots.
    pub fn unassigned_count(&self) -> usize {
        self.unassigned
    }

    /// State of a pair in a dimension.
    pub fn state(&self, dim: usize, pair: usize) -> EdgeState {
        self.states[dim][pair]
    }

    /// Orientation of a pair in a dimension.
    pub fn orient(&self, dim: usize, pair: usize) -> Orient {
        self.orients[dim][pair]
    }

    /// Whether the arc `u → v` ("u before v") is fixed in `dim`.
    pub fn has_arc(&self, dim: usize, u: usize, v: usize) -> bool {
        let o = self.orients[dim][self.idx.index(u, v)];
        (u < v && o == Orient::Forward) || (u > v && o == Orient::Backward)
    }

    /// The graph of fixed component edges in `dim`.
    pub fn component_graph(&self, dim: usize) -> &DenseGraph {
        &self.component[dim]
    }

    /// The graph of fixed comparability edges in `dim`.
    pub fn comparability_graph(&self, dim: usize) -> &DenseGraph {
        &self.comparability[dim]
    }

    /// Out-neighbors of `v` in the oriented arc digraph of `dim`.
    pub fn out_neighbors(&self, dim: usize, v: usize) -> &BitSet {
        &self.out[dim][v]
    }

    /// In-neighbors of `v` in the oriented arc digraph of `dim`.
    pub fn in_neighbors(&self, dim: usize, v: usize) -> &BitSet {
        &self.inn[dim][v]
    }

    /// Weight of the heaviest oriented chain ending at `v` in `dim`
    /// (counting `v` itself). Only meaningful while [`Self::has_cycle`] is
    /// false: labels freeze while the digraph is cyclic.
    #[cfg(test)]
    pub fn longest_path_end(&self, dim: usize, v: usize) -> u64 {
        self.dist[dim][v]
    }

    /// Weight of the heaviest oriented chain in `dim` (the maximum over all
    /// per-vertex chain-end labels). Only meaningful while
    /// [`Self::has_cycle`] is false: labels freeze while the digraph is
    /// cyclic.
    pub fn max_longest_path(&self, dim: usize) -> u64 {
        self.max_dist[dim]
    }

    /// Whether the oriented arc digraph of `dim` currently has a cycle.
    pub fn has_cycle(&self, dim: usize) -> bool {
        self.cycle_arcs[dim] > 0
    }

    /// The vertex weight of `v` in `dim` (as passed to
    /// [`Self::with_sizes`]; zero under `new`).
    #[cfg(test)]
    pub fn vertex_weight(&self, dim: usize, v: usize) -> u64 {
        self.sizes[dim][v]
    }

    /// Sets an unassigned slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already assigned or `state` is `Unassigned` —
    /// propagation must check before overwriting.
    pub fn assign(&mut self, dim: usize, pair: usize, state: EdgeState) {
        assert_eq!(
            self.states[dim][pair],
            EdgeState::Unassigned,
            "slot (dim {dim}, pair {pair}) already assigned"
        );
        assert_ne!(state, EdgeState::Unassigned, "cannot assign Unassigned");
        self.states[dim][pair] = state;
        self.unassigned -= 1;
        let (u, v) = self.idx.pair(pair);
        match state {
            EdgeState::Component => {
                self.component[dim].add_edge(u, v);
            }
            EdgeState::Comparability => {
                self.comparability[dim].add_edge(u, v);
            }
            EdgeState::Unassigned => unreachable!(),
        }
        self.trail.push(TrailEntry::State { dim, pair });
    }

    /// Orients an unoriented slot (`u → v`); the slot must be a fixed
    /// comparability edge.
    ///
    /// Also maintains the arc digraph incrementally: appends to the arc
    /// list and adjacency bitsets, detects whether the arc closes a cycle,
    /// and — while the digraph stays acyclic — relaxes the longest-path
    /// labels along the affected descendants only, logging every overwrite
    /// on the trail. Labels freeze while a cycle exists; that is sound
    /// because the search treats a cyclic digraph as an immediate conflict
    /// and rolls the cascade back wholesale.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not a comparability edge or already oriented.
    pub fn orient_arc(&mut self, dim: usize, u: usize, v: usize) {
        let pair = self.idx.index(u, v);
        assert_eq!(
            self.states[dim][pair],
            EdgeState::Comparability,
            "only comparability edges carry orientations"
        );
        assert_eq!(self.orients[dim][pair], Orient::None, "already oriented");
        self.orients[dim][pair] = if u < v {
            Orient::Forward
        } else {
            Orient::Backward
        };
        // A cycle through the new arc u→v exists iff v already reached u.
        // While a cycle is live the labels are frozen, so the (possibly
        // expensive) reachability probe is skipped too.
        let closed_cycle = self.cycle_arcs[dim] == 0 && self.reaches(dim, v, u);
        self.arc_list[dim].push((u, v));
        self.out[dim][u].insert(v);
        self.inn[dim][v].insert(u);
        self.trail.push(TrailEntry::Orient {
            dim,
            pair,
            closed_cycle,
        });
        if closed_cycle {
            self.cycle_arcs[dim] += 1;
        } else if self.cycle_arcs[dim] == 0 {
            self.relax_from(dim, u, v);
        }
    }

    /// Whether `from` reaches `to` in the arc digraph of `dim` (depth-first
    /// over the out-neighbor bitsets; reuses scratch buffers).
    fn reaches(&mut self, dim: usize, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut stack = std::mem::take(&mut self.scratch_stack);
        stack.clear();
        self.scratch_visited.clear();
        self.scratch_visited.insert(from);
        stack.push(from);
        let mut found = false;
        while let Some(w) = stack.pop() {
            if self.out[dim][w].contains(to) {
                found = true;
                break;
            }
            // Fused sweep of out[w] \ visited: the kernel skips
            // already-visited vertices inside the word ops instead of
            // yielding them for a per-element membership test — rows
            // overlap heavily once the BFS frontier grows. Newly visited
            // vertices land below the advancing cursor, so the difference
            // never yields one twice.
            let row = &self.out[dim][w];
            let mut next = 0;
            while let Some(x) = row.and_not_next(&self.scratch_visited, next) {
                next = x + 1;
                self.scratch_visited.insert(x);
                stack.push(x);
            }
        }
        self.scratch_stack = stack;
        found
    }

    /// Relaxes longest-path labels after inserting the arc `u → v` into an
    /// acyclic digraph: only vertices whose label actually grows are
    /// visited, and every overwrite is trail-logged.
    fn relax_from(&mut self, dim: usize, u: usize, v: usize) {
        let candidate = self.dist[dim][u].saturating_add(self.sizes[dim][v]);
        if candidate <= self.dist[dim][v] {
            return;
        }
        let mut stack = std::mem::take(&mut self.scratch_stack);
        stack.clear();
        self.bump_dist(dim, v, candidate);
        stack.push(v);
        while let Some(w) = stack.pop() {
            let base = self.dist[dim][w];
            let mut x_from = 0;
            while let Some(x) = self.out[dim][w].next_at_or_after(x_from) {
                x_from = x + 1;
                let candidate = base.saturating_add(self.sizes[dim][x]);
                if candidate > self.dist[dim][x] {
                    self.bump_dist(dim, x, candidate);
                    stack.push(x);
                }
            }
        }
        self.scratch_stack = stack;
    }

    /// Raises `dist[dim][v]` to `new` (trail-logged), maintaining the
    /// running maximum.
    fn bump_dist(&mut self, dim: usize, v: usize, new: u64) {
        self.trail.push(TrailEntry::Dist {
            dim,
            vertex: v,
            old: self.dist[dim][v],
        });
        self.dist[dim][v] = new;
        if new > self.max_dist[dim] {
            self.trail.push(TrailEntry::MaxDist {
                dim,
                old: self.max_dist[dim],
            });
            self.max_dist[dim] = new;
        }
    }

    /// A rollback point capturing the current trail length.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Undoes every mutation after `mark`.
    pub fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail length checked") {
                TrailEntry::State { dim, pair } => {
                    let (u, v) = self.idx.pair(pair);
                    match self.states[dim][pair] {
                        EdgeState::Component => {
                            self.component[dim].remove_edge(u, v);
                        }
                        EdgeState::Comparability => {
                            self.comparability[dim].remove_edge(u, v);
                        }
                        EdgeState::Unassigned => unreachable!("trail records assignments"),
                    }
                    self.states[dim][pair] = EdgeState::Unassigned;
                    self.unassigned += 1;
                }
                TrailEntry::Orient {
                    dim,
                    pair,
                    closed_cycle,
                } => {
                    self.orients[dim][pair] = Orient::None;
                    let (u, v) = self.arc_list[dim]
                        .pop()
                        .expect("arc list and trail are in lockstep");
                    debug_assert_eq!(self.idx.index(u, v), pair);
                    self.out[dim][u].remove(v);
                    self.inn[dim][v].remove(u);
                    if closed_cycle {
                        self.cycle_arcs[dim] -= 1;
                    }
                }
                TrailEntry::Dist { dim, vertex, old } => {
                    self.dist[dim][vertex] = old;
                }
                TrailEntry::MaxDist { dim, old } => {
                    self.max_dist[dim] = old;
                }
            }
        }
    }

    /// All arcs fixed in `dim`, as `(u, v)` = "u before v", in insertion
    /// order (maintained incrementally — no pair scan).
    pub fn arcs(&self, dim: usize) -> &[(usize, usize)] {
        &self.arc_list[dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_updates_graphs_and_counts() {
        let mut s = PackingState::new(3);
        assert_eq!(s.unassigned_count(), 9);
        let p = s.pair_index().index(0, 1);
        s.assign(2, p, EdgeState::Comparability);
        assert_eq!(s.state(2, p), EdgeState::Comparability);
        assert!(s.comparability_graph(2).has_edge(0, 1));
        assert!(!s.component_graph(2).has_edge(0, 1));
        assert_eq!(s.unassigned_count(), 8);
    }

    #[test]
    fn rollback_restores_everything() {
        let mut s = PackingState::new(3);
        let p01 = s.pair_index().index(0, 1);
        let p02 = s.pair_index().index(0, 2);
        s.assign(0, p01, EdgeState::Component);
        let mark = s.mark();
        s.assign(2, p02, EdgeState::Comparability);
        s.orient_arc(2, 2, 0);
        assert!(s.has_arc(2, 2, 0));
        s.rollback(mark);
        assert_eq!(s.state(2, p02), EdgeState::Unassigned);
        assert_eq!(s.orient(2, p02), Orient::None);
        assert!(!s.comparability_graph(2).has_edge(0, 2));
        // the earlier assignment survives
        assert_eq!(s.state(0, p01), EdgeState::Component);
        assert_eq!(s.unassigned_count(), 8);
    }

    #[test]
    fn arcs_reports_directions() {
        let mut s = PackingState::new(3);
        let p01 = s.pair_index().index(0, 1);
        let p12 = s.pair_index().index(1, 2);
        s.assign(2, p01, EdgeState::Comparability);
        s.orient_arc(2, 1, 0);
        s.assign(2, p12, EdgeState::Comparability);
        s.orient_arc(2, 1, 2);
        let mut arcs = s.arcs(2).to_vec();
        arcs.sort_unstable();
        assert_eq!(arcs, vec![(1, 0), (1, 2)]);
        assert!(s.has_arc(2, 1, 0));
        assert!(!s.has_arc(2, 0, 1));
        assert!(s.out_neighbors(2, 1).contains(0));
        assert!(s.out_neighbors(2, 1).contains(2));
        assert!(s.in_neighbors(2, 0).contains(1));
    }

    #[test]
    fn chain_labels_track_orientations_and_rollback() {
        let sizes: [Vec<u64>; 3] = [vec![0; 3], vec![0; 3], vec![5, 2, 4]];
        let mut s = PackingState::with_sizes(3, sizes);
        assert_eq!(s.max_longest_path(2), 5);
        let p01 = s.pair_index().index(0, 1);
        let p12 = s.pair_index().index(1, 2);
        s.assign(2, p01, EdgeState::Comparability);
        s.assign(2, p12, EdgeState::Comparability);
        let mark = s.mark();
        s.orient_arc(2, 0, 1); // chain 0→1: 5 + 2
        assert_eq!(s.longest_path_end(2, 1), 7);
        assert_eq!(s.max_longest_path(2), 7);
        s.orient_arc(2, 1, 2); // chain 0→1→2: 5 + 2 + 4
        assert_eq!(s.longest_path_end(2, 2), 11);
        assert_eq!(s.max_longest_path(2), 11);
        assert!(!s.has_cycle(2));
        s.rollback(mark);
        assert_eq!(s.longest_path_end(2, 1), 2);
        assert_eq!(s.longest_path_end(2, 2), 4);
        assert_eq!(s.max_longest_path(2), 5);
        assert!(s.arcs(2).is_empty());
        assert!(s.out_neighbors(2, 0).is_empty());
    }

    #[test]
    fn cycles_are_detected_and_unwound() {
        let sizes: [Vec<u64>; 3] = [vec![0; 3], vec![0; 3], vec![1, 1, 1]];
        let mut s = PackingState::with_sizes(3, sizes);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            let p = s.pair_index().index(a, b);
            s.assign(2, p, EdgeState::Comparability);
        }
        s.orient_arc(2, 0, 1);
        s.orient_arc(2, 1, 2);
        let mark = s.mark();
        s.orient_arc(2, 2, 0); // closes 0→1→2→0
        assert!(s.has_cycle(2));
        s.rollback(mark);
        assert!(!s.has_cycle(2));
        assert_eq!(s.max_longest_path(2), 3);
        assert_eq!(s.arcs(2), &[(0, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn double_assign_panics() {
        let mut s = PackingState::new(2);
        s.assign(0, 0, EdgeState::Component);
        s.assign(0, 0, EdgeState::Component);
    }

    #[test]
    #[should_panic(expected = "only comparability edges")]
    fn orienting_component_edge_panics() {
        let mut s = PackingState::new(2);
        s.assign(2, 0, EdgeState::Component);
        s.orient_arc(2, 0, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random interleavings of assignments, orientations, and rollbacks must
    /// keep the materialized graphs consistent with the state table.
    fn consistent(s: &PackingState) -> bool {
        let idx = s.pair_index();
        for d in 0..3 {
            for (p, u, v) in idx.iter() {
                let in_component = s.component_graph(d).has_edge(u, v);
                let in_comparability = s.comparability_graph(d).has_edge(u, v);
                let expected = match s.state(d, p) {
                    EdgeState::Unassigned => !in_component && !in_comparability,
                    EdgeState::Component => in_component && !in_comparability,
                    EdgeState::Comparability => !in_component && in_comparability,
                };
                if !expected {
                    return false;
                }
                if s.orient(d, p) != Orient::None && s.state(d, p) != EdgeState::Comparability {
                    return false;
                }
            }
        }
        arcs_consistent(s)
    }

    /// The incrementally maintained arc digraph — arc lists, out-/in-
    /// neighbor bitsets, cycle flag, and longest-path labels — must always
    /// equal a from-scratch recomputation over the orientation table.
    fn arcs_consistent(s: &PackingState) -> bool {
        let idx = s.pair_index();
        let n = s.task_count();
        for d in 0..3 {
            // Arcs implied by the orientation table.
            let mut expected: Vec<(usize, usize)> = Vec::new();
            for (p, u, v) in idx.iter() {
                match s.orient(d, p) {
                    Orient::Forward => expected.push((u, v)),
                    Orient::Backward => expected.push((v, u)),
                    Orient::None => {}
                }
            }
            let mut maintained = s.arcs(d).to_vec();
            maintained.sort_unstable();
            expected.sort_unstable();
            if maintained != expected {
                return false;
            }
            // Adjacency bitsets row by row.
            for u in 0..n {
                for v in 0..n {
                    let has = expected.contains(&(u, v));
                    if s.out_neighbors(d, u).contains(v) != has
                        || s.in_neighbors(d, v).contains(u) != has
                    {
                        return false;
                    }
                }
            }
            // Cycle flag and (when acyclic) longest-path labels, against a
            // naive fixpoint recomputation.
            match scratch_longest_paths(d, s, &expected) {
                None => {
                    if !s.has_cycle(d) {
                        return false;
                    }
                }
                Some(dist) => {
                    if s.has_cycle(d) {
                        return false;
                    }
                    let max = dist.iter().copied().max().unwrap_or(0);
                    if s.max_longest_path(d) != max {
                        return false;
                    }
                    for (v, &want) in dist.iter().enumerate() {
                        if s.longest_path_end(d, v) != want {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Naive vertex-weighted longest path per end vertex; `None` if the arc
    /// set is cyclic. Bellman-Ford-style: at most `n` rounds of relaxation
    /// can change anything in a DAG, so an `n`-th-round change is a cycle.
    fn scratch_longest_paths(
        d: usize,
        s: &PackingState,
        arcs: &[(usize, usize)],
    ) -> Option<Vec<u64>> {
        let n = s.task_count();
        let size = |v: usize| s.vertex_weight(d, v);
        let mut dist: Vec<u64> = (0..n).map(size).collect();
        for round in 0..=n {
            let mut changed = false;
            for &(u, v) in arcs {
                let candidate = dist[u].saturating_add(size(v));
                if candidate > dist[v] {
                    dist[v] = candidate;
                    changed = true;
                }
            }
            if !changed {
                return Some(dist);
            }
            if round == n {
                return None;
            }
        }
        Some(dist)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_trail_replay_is_consistent(ops in proptest::collection::vec((0usize..3, 0usize..6, 0usize..6), 1..60)) {
            let n = 4;
            // Distinct, nonzero weights so label errors cannot hide.
            let sizes: [Vec<u64>; 3] =
                std::array::from_fn(|d| (0..n).map(|v| (d * n + v + 1) as u64).collect());
            let mut s = PackingState::with_sizes(n, sizes);
            let mut marks: Vec<usize> = Vec::new();
            for (d, p, action) in ops {
                let p = p % s.pair_index().pair_count();
                match action {
                    0 if s.state(d, p) == EdgeState::Unassigned => {
                        s.assign(d, p, EdgeState::Component);
                    }
                    1 if s.state(d, p) == EdgeState::Unassigned => {
                        s.assign(d, p, EdgeState::Comparability);
                    }
                    2 => marks.push(s.mark()),
                    3 => {
                        if let Some(m) = marks.pop() {
                            s.rollback(m);
                        }
                    }
                    4 | 5 if s.state(d, p) == EdgeState::Comparability
                        && s.orient(d, p) == Orient::None =>
                    {
                        let (u, v) = s.pair_index().pair(p);
                        if action == 4 {
                            s.orient_arc(d, u, v);
                        } else {
                            s.orient_arc(d, v, u);
                        }
                    }
                    _ => {}
                }
                prop_assert!(consistent(&s), "inconsistent after op ({d}, {p}, {action})");
            }
            // Rolling everything back restores the pristine state.
            s.rollback(0);
            prop_assert!(consistent(&s));
            prop_assert_eq!(s.unassigned_count(), 3 * s.pair_index().pair_count());
            for d in 0..3 {
                prop_assert!(s.arcs(d).is_empty());
                prop_assert!(!s.has_cycle(d));
            }
        }
    }
}
