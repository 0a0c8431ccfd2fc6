//! Transitive orientation of comparability graphs by Gallai forcing.
//!
//! A graph is a *comparability graph* iff its edges can be oriented
//! transitively (`u→w`, `w→v` implies `u→v`). The paper needs more: given a
//! partial order `P` (the precedence constraints) whose arcs are edges of the
//! comparability graph, decide whether a transitive orientation **extending
//! `P`** exists — the problem of Korte–Möhring, solved here with the two
//! implication rules of paper §4.3:
//!
//! * **D1 (path implication)** — edges `{a,b}`, `{a,c}` present, `{b,c}`
//!   absent: any transitive orientation has `a→b ⇔ a→c` (otherwise
//!   transitivity would force the missing edge `{b,c}`);
//! * **D2 (transitivity implication)** — `u→w` and `w→v` force `u→v`; if
//!   `{u,v}` is not an edge, that is a conflict.
//!
//! The engine closes a set of seed arcs under D1/D2 (detecting *path
//! conflicts* and *transitivity conflicts*), then completes the orientation
//! by picking undecided edges; Theorem 2 of the paper says conflicts found by
//! closure are the only obstructions, and a trail-based backtrack makes the
//! routine complete even without leaning on the theorem.

use recopack_graph::{DenseGraph, PairIndex};

use crate::Dag;

/// Errors of [`transitively_orient_extending`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrientError {
    /// A seed arc `(u, v)` joins vertices that are not adjacent in the
    /// comparability graph, so no orientation of the graph can include it.
    ArcNotInGraph(usize, usize),
    /// Both `u→v` and `v→u` appear among the seed arcs.
    ContradictoryArcs(usize, usize),
    /// No transitive orientation of the graph extends the seed arcs
    /// (a path or transitivity conflict; for an empty seed set this means
    /// the graph is not a comparability graph).
    NotExtendable,
}

impl std::fmt::Display for OrientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ArcNotInGraph(u, v) => {
                write!(f, "seed arc ({u}, {v}) is not an edge of the graph")
            }
            Self::ContradictoryArcs(u, v) => {
                write!(f, "seed arcs contain both ({u}, {v}) and ({v}, {u})")
            }
            Self::NotExtendable => {
                write!(f, "no transitive orientation extends the given arcs")
            }
        }
    }
}

impl std::error::Error for OrientError {}

/// Orientation of a pair, relative to `(lo, hi)` with `lo < hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    None,
    LoHi,
    HiLo,
}

struct Engine<'g> {
    g: &'g DenseGraph,
    idx: PairIndex,
    orient: Vec<Dir>,
    /// Pairs whose orientation changed, for backtracking.
    trail: Vec<usize>,
}

impl<'g> Engine<'g> {
    fn new(g: &'g DenseGraph) -> Self {
        let idx = PairIndex::new(g.vertex_count());
        Self {
            g,
            idx,
            orient: vec![Dir::None; idx.pair_count()],
            trail: Vec::new(),
        }
    }

    fn dir_of(&self, u: usize, v: usize) -> Dir {
        self.orient[self.idx.index(u, v)]
    }

    /// Whether the arc u→v is currently set.
    fn has(&self, u: usize, v: usize) -> bool {
        let d = self.dir_of(u, v);
        (u < v && d == Dir::LoHi) || (u > v && d == Dir::HiLo)
    }

    /// Sets u→v; pushes to `queue` on change. Returns false on conflict.
    fn set(&mut self, u: usize, v: usize, queue: &mut Vec<(usize, usize)>) -> bool {
        let p = self.idx.index(u, v);
        let want = if u < v { Dir::LoHi } else { Dir::HiLo };
        match self.orient[p] {
            Dir::None => {
                self.orient[p] = want;
                self.trail.push(p);
                queue.push((u, v));
                true
            }
            d => d == want,
        }
    }

    /// Closes `queue` under D1 and D2. Returns false on conflict.
    fn propagate(&mut self, queue: &mut Vec<(usize, usize)>) -> bool {
        while let Some((u, v)) = queue.pop() {
            debug_assert!(self.g.has_edge(u, v) && self.has(u, v));
            let n = self.g.vertex_count();
            for w in 0..n {
                if w == u || w == v {
                    continue;
                }
                let uw = self.g.has_edge(u, w);
                let vw = self.g.has_edge(v, w);
                // D1 at shared endpoint u: {u,v}, {u,w} edges, {v,w} non-edge
                // => u→v forces u→w.
                if uw && !vw && !self.set(u, w, queue) {
                    return false;
                }
                // D1 at shared endpoint v: {v,u}, {v,w} edges, {u,w} non-edge
                // => u→v (v receives) forces w→v.
                if vw && !uw && !self.set(w, v, queue) {
                    return false;
                }
                // D2: u→v plus v→w forces u→w.
                if vw && self.has(v, w) {
                    if !uw {
                        return false; // transitivity conflict: {u,w} missing
                    }
                    if !self.set(u, w, queue) {
                        return false;
                    }
                }
                // D2: w→u plus u→v forces w→v.
                if uw && self.has(w, u) {
                    if !vw {
                        return false;
                    }
                    if !self.set(w, v, queue) {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let p = self.trail.pop().expect("trail len checked");
            self.orient[p] = Dir::None;
        }
    }

    /// Completes the current partial orientation by DFS with forcing.
    fn complete(&mut self) -> bool {
        // Find an unoriented edge.
        let next = self
            .g
            .edges()
            .find(|&(u, v)| self.dir_of(u, v) == Dir::None);
        let Some((u, v)) = next else {
            return true; // fully oriented, propagation kept it consistent
        };
        for (a, b) in [(u, v), (v, u)] {
            let mark = self.trail.len();
            let mut queue = Vec::new();
            if self.set(a, b, &mut queue) && self.propagate(&mut queue) && self.complete() {
                return true;
            }
            self.rollback(mark);
        }
        false
    }

    fn into_dag(self) -> Dag {
        let mut d = Dag::new(self.g.vertex_count());
        for (u, v) in self.g.edges() {
            match self.dir_of(u, v) {
                Dir::LoHi => {
                    d.add_arc(u.min(v), u.max(v));
                }
                Dir::HiLo => {
                    d.add_arc(u.max(v), u.min(v));
                }
                Dir::None => unreachable!("complete orientation expected"),
            }
        }
        d
    }
}

/// Finds a transitive orientation of `g` extending the `seed` arcs.
///
/// Every seed arc `(u, v)` demands the orientation `u→v`; the result is a
/// [`Dag`] orienting *every* edge of `g` transitively, or an error if that is
/// impossible. This is the leaf test of the precedence-constrained
/// packing-class search (paper §4.2/§4.4).
///
/// # Errors
///
/// * [`OrientError::ArcNotInGraph`] — a seed arc is not an edge of `g`;
/// * [`OrientError::ContradictoryArcs`] — seeds contain an arc both ways;
/// * [`OrientError::NotExtendable`] — a path or transitivity conflict makes
///   extension impossible.
///
/// # Example
///
/// ```
/// use recopack_graph::DenseGraph;
/// use recopack_order::orientation::transitively_orient_extending;
///
/// // P4: a-b-c-d has essentially one transitive orientation per end edge.
/// let g = DenseGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let dag = transitively_orient_extending(&g, [(0, 1)])?;
/// assert!(dag.has_arc(0, 1));
/// assert!(dag.is_transitive());
/// # Ok::<(), recopack_order::orientation::OrientError>(())
/// ```
pub fn transitively_orient_extending(
    g: &DenseGraph,
    seed: impl IntoIterator<Item = (usize, usize)>,
) -> Result<Dag, OrientError> {
    let mut engine = Engine::new(g);
    let mut queue = Vec::new();
    for (u, v) in seed {
        if !g.has_edge(u, v) {
            return Err(OrientError::ArcNotInGraph(u, v));
        }
        if engine.has(v, u) {
            return Err(OrientError::ContradictoryArcs(u, v));
        }
        if !engine.set(u, v, &mut queue) {
            return Err(OrientError::NotExtendable);
        }
    }
    if !engine.propagate(&mut queue) || !engine.complete() {
        return Err(OrientError::NotExtendable);
    }
    let dag = engine.into_dag();
    debug_assert!(dag.is_transitive(), "engine must produce transitive output");
    debug_assert!(dag.is_acyclic(), "transitive orientations are acyclic");
    Ok(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cycle(n: usize) -> DenseGraph {
        DenseGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    /// Whether `g` is a comparability graph, by the engine with no seeds.
    fn orients(g: &DenseGraph) -> bool {
        transitively_orient_extending(g, []).is_ok()
    }

    /// Brute force: try all 2^m orientations.
    fn orient_brute(g: &DenseGraph, seed: &[(usize, usize)]) -> bool {
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let m = edges.len();
        assert!(m <= 16);
        'outer: for mask in 0u32..(1 << m) {
            let mut d = Dag::new(g.vertex_count());
            for (i, &(u, v)) in edges.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    d.add_arc(u, v);
                } else {
                    d.add_arc(v, u);
                }
            }
            for &(u, v) in seed {
                if !d.has_arc(u, v) {
                    continue 'outer;
                }
            }
            if d.is_transitive() && d.is_acyclic() {
                return true;
            }
        }
        false
    }

    fn random_graph(n: usize, density: f64, seed: u64) -> DenseGraph {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut g = DenseGraph::new(n);
        for v in 1..n {
            for u in 0..v {
                if next() < density {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    #[test]
    fn even_cycles_orient_odd_cycles_do_not() {
        assert!(orients(&cycle(4)));
        assert!(orients(&cycle(6)));
        assert!(!orients(&cycle(5)));
        assert!(!orients(&cycle(7)));
    }

    #[test]
    fn complete_and_empty_graphs_orient() {
        let mut k4 = DenseGraph::new(4);
        for v in 1..4 {
            for u in 0..v {
                k4.add_edge(u, v);
            }
        }
        assert!(orients(&k4));
        assert!(orients(&DenseGraph::new(5)));
        assert!(orients(&DenseGraph::new(0)));
    }

    #[test]
    fn p4_forcing_propagates_along_the_path() {
        // In P4 a-b-c-d: {a,b} and {b,c} share b with {a,c} missing, so
        // a→b forces c→b, which forces c→d.
        let g = DenseGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let dag = transitively_orient_extending(&g, [(0, 1)]).expect("extendable");
        assert!(dag.has_arc(0, 1));
        assert!(dag.has_arc(2, 1));
        assert!(dag.has_arc(2, 3));
    }

    #[test]
    fn figure5_style_conflict() {
        // Paper Fig. 5: a comparability graph and a partial order that
        // admits no extension. Triangle-free construction: in C4 with
        // vertices 0-1-2-3, edges {0,1},{1,2},{2,3},{3,0}; forcing makes
        // opposite edges parallel. Seeding 0→1 and 2→1 and 2→3 creates a
        // path conflict (0→1 forces ... 0→3? check: {0,1},{1,2} share 1,
        // {0,2} missing: 0→1 forces 2→1 ✓ consistent; {2,1},{2,3} share 2,
        // {1,3} missing: 2→1 forces 2→3 ✓. Instead seed 0→1 and 3→2 and
        // demand 1←2 ... use contradictory forcing: 0→1 forces 2→1 and
        // then 2→1 forces 2→3? no: {2,1},{2,3} share 2, {1,3} missing, so
        // 2→1 ⇔ 2→3. Seed 0→1 plus 3→2 conflicts.
        let g = cycle(4);
        let err =
            transitively_orient_extending(&g, [(0, 1), (3, 2)]).expect_err("conflicting seeds");
        assert_eq!(err, OrientError::NotExtendable);
        // The individual seeds alone are fine.
        assert!(transitively_orient_extending(&g, [(0, 1)]).is_ok());
        assert!(transitively_orient_extending(&g, [(3, 2)]).is_ok());
    }

    #[test]
    fn seed_arc_must_be_an_edge() {
        let g = DenseGraph::from_edges(3, [(0, 1)]);
        assert_eq!(
            transitively_orient_extending(&g, [(0, 2)]),
            Err(OrientError::ArcNotInGraph(0, 2))
        );
    }

    #[test]
    fn contradictory_seeds_rejected() {
        let g = DenseGraph::from_edges(2, [(0, 1)]);
        assert_eq!(
            transitively_orient_extending(&g, [(0, 1), (1, 0)]),
            Err(OrientError::ContradictoryArcs(1, 0))
        );
    }

    #[test]
    fn orientation_contains_all_edges_exactly_once() {
        let g = DenseGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        if let Ok(dag) = transitively_orient_extending(&g, []) {
            assert_eq!(dag.arc_count(), g.edge_count());
            for (u, v) in g.edges() {
                assert!(dag.has_arc(u, v) ^ dag.has_arc(v, u));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_brute_force(n in 1usize..7, seed in 0u64..200, d in 0.2f64..0.9) {
            let g = random_graph(n, d, seed);
            prop_assume!(g.edge_count() <= 16);
            prop_assert_eq!(orients(&g), orient_brute(&g, &[]));
        }

        #[test]
        fn extension_matches_brute_force(n in 2usize..7, seed in 0u64..150) {
            let g = random_graph(n, 0.5, seed);
            prop_assume!(g.edge_count() >= 1 && g.edge_count() <= 14);
            let (u, v) = g.edges().next().expect("has an edge");
            let ours = transitively_orient_extending(&g, [(u, v)]).is_ok();
            prop_assert_eq!(ours, orient_brute(&g, &[(u, v)]));
        }

        #[test]
        fn produced_orientation_is_valid(n in 1usize..8, seed in 0u64..100) {
            let g = random_graph(n, 0.4, seed);
            if let Ok(dag) = transitively_orient_extending(&g, []) {
                prop_assert!(dag.is_transitive());
                prop_assert!(dag.is_acyclic());
                prop_assert_eq!(dag.arc_count(), g.edge_count());
            }
        }
    }
}
