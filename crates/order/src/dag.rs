//! Directed acyclic graphs: the dependency-graph substrate.

use recopack_graph::BitSet;

/// Error returned when an operation requires acyclicity but the graph has a
/// directed cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// Vertices of one directed cycle, in order.
    pub cycle: Vec<usize>,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "directed cycle through vertices {:?}", self.cycle)
    }
}

impl std::error::Error for CycleError {}

/// A directed graph on vertices `0..n`, used for dependency (precedence)
/// structures. Most operations require acyclicity and say so.
///
/// # Example
///
/// ```
/// use recopack_order::Dag;
///
/// let mut d = Dag::new(3);
/// d.add_arc(0, 1);
/// d.add_arc(1, 2);
/// let closure = d.transitive_closure()?;
/// assert!(closure.has_arc(0, 2));
/// assert_eq!(d.earliest_starts(&[2, 3, 1])?, [0, 2, 5]);
/// # Ok::<(), recopack_order::CycleError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Dag {
    n: usize,
    succ: Vec<BitSet>,
    pred: Vec<BitSet>,
    arc_count: usize,
}

impl Dag {
    /// Creates an arcless directed graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            succ: (0..n).map(|_| BitSet::new(n)).collect(),
            pred: (0..n).map(|_| BitSet::new(n)).collect(),
            arc_count: 0,
        }
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arc_count
    }

    /// Adds the arc `u → v`, returning whether it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_arc(&mut self, u: usize, v: usize) -> bool {
        assert!(u != v, "self-loop at {u}");
        assert!(u < self.n && v < self.n, "vertex out of range");
        let added = self.succ[u].insert(v);
        self.pred[v].insert(u);
        if added {
            self.arc_count += 1;
        }
        added
    }

    /// Whether the arc `u → v` is present.
    pub fn has_arc(&self, u: usize, v: usize) -> bool {
        u < self.n && self.succ[u].contains(v)
    }

    /// Successors of `u`.
    pub fn successors(&self, u: usize) -> &BitSet {
        &self.succ[u]
    }

    /// Predecessors of `u`.
    pub fn predecessors(&self, u: usize) -> &BitSet {
        &self.pred[u]
    }

    /// Iterates over all arcs `(u, v)`.
    pub fn arcs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| self.succ[u].iter().map(move |v| (u, v)))
    }

    /// A topological order of the vertices.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the graph has a directed cycle.
    pub fn topological_order(&self) -> Result<Vec<usize>, CycleError> {
        let mut indeg: Vec<usize> = (0..self.n).map(|v| self.pred[v].len()).collect();
        let mut queue: Vec<usize> = (0..self.n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for v in self.succ[u].iter() {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() == self.n {
            Ok(order)
        } else {
            Err(self.find_cycle())
        }
    }

    fn find_cycle(&self) -> CycleError {
        // DFS with colors to extract one cycle.
        let mut color = vec![0u8; self.n]; // 0 white, 1 gray, 2 black
        let mut parent = vec![usize::MAX; self.n];
        for s in 0..self.n {
            if color[s] != 0 {
                continue;
            }
            let mut stack = vec![(s, self.succ[s].iter().collect::<Vec<_>>())];
            color[s] = 1;
            while let Some((u, children)) = stack.last_mut() {
                if let Some(v) = children.pop() {
                    let u = *u;
                    match color[v] {
                        0 => {
                            color[v] = 1;
                            parent[v] = u;
                            stack.push((v, self.succ[v].iter().collect()));
                        }
                        1 => {
                            // Found cycle v -> ... -> u -> v.
                            let mut cycle = vec![u];
                            let mut w = u;
                            while w != v {
                                w = parent[w];
                                cycle.push(w);
                            }
                            cycle.reverse();
                            return CycleError { cycle };
                        }
                        _ => {}
                    }
                } else {
                    color[*u] = 2;
                    stack.pop();
                }
            }
        }
        unreachable!("find_cycle called on acyclic graph")
    }

    /// Whether the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_ok()
    }

    /// The transitive closure: `u → v` iff a directed path `u ⇝ v` exists.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the graph has a directed cycle.
    pub fn transitive_closure(&self) -> Result<Dag, CycleError> {
        let order = self.topological_order()?;
        let mut reach: Vec<BitSet> = (0..self.n).map(|_| BitSet::new(self.n)).collect();
        for &u in order.iter().rev() {
            let mut r = BitSet::new(self.n);
            for v in self.succ[u].iter() {
                r.insert(v);
                r.union_with(&reach[v]);
            }
            reach[u] = r;
        }
        let mut d = Dag::new(self.n);
        for (u, r) in reach.iter().enumerate() {
            for v in r.iter() {
                d.add_arc(u, v);
            }
        }
        Ok(d)
    }

    /// Whether the arc relation is transitive (`u→w`, `w→v` implies `u→v`).
    pub fn is_transitive(&self) -> bool {
        (0..self.n).all(|u| {
            self.succ[u]
                .iter()
                .all(|w| self.succ[w].is_subset(&self.succ[u]))
        })
    }

    /// Earliest start times honoring all arcs (`start(v) ≥ start(u) + w(u)`),
    /// saturating at `u64::MAX`: a start past `u64` reads `u64::MAX`.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the graph has a directed cycle.
    pub fn earliest_starts(&self, weights: &[u64]) -> Result<Vec<u64>, CycleError> {
        assert_eq!(weights.len(), self.n, "one weight per vertex required");
        let order = self.topological_order()?;
        let mut start = vec![0u64; self.n];
        for &u in &order {
            for v in self.succ[u].iter() {
                start[v] = start[v].max(start[u].saturating_add(weights[u]));
            }
        }
        Ok(start)
    }

    /// Latest start times such that everything finishes by `deadline`.
    ///
    /// Returns `None` for tasks that cannot meet the deadline at all
    /// (their tail of successors is longer than the deadline).
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the graph has a directed cycle.
    pub fn latest_starts(
        &self,
        weights: &[u64],
        deadline: u64,
    ) -> Result<Vec<Option<u64>>, CycleError> {
        assert_eq!(weights.len(), self.n, "one weight per vertex required");
        let order = self.topological_order()?;
        // tail[v]: weight of heaviest path starting at v (including v).
        let mut tail = vec![0u64; self.n];
        for &u in order.iter().rev() {
            let succ_best = self.succ[u].iter().map(|v| tail[v]).max().unwrap_or(0);
            tail[u] = weights[u] + succ_best;
        }
        Ok(tail.iter().map(|&t| deadline.checked_sub(t)).collect())
    }
}

impl std::fmt::Debug for Dag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Dag(n={}, arcs=", self.n)?;
        f.debug_list().entries(self.arcs()).finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dag(n: usize, arcs: impl IntoIterator<Item = (usize, usize)>) -> Dag {
        let mut d = Dag::new(n);
        for (u, v) in arcs {
            d.add_arc(u, v);
        }
        d
    }

    fn diamond() -> Dag {
        dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn topological_order_respects_arcs() {
        let d = diamond();
        let order = d.topological_order().expect("acyclic");
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (u, v) in d.arcs() {
            assert!(pos[u] < pos[v]);
        }
    }

    #[test]
    fn cycle_detection_reports_cycle() {
        let d = dag(4, [(0, 1), (1, 2), (2, 0)]);
        let err = d.topological_order().expect_err("cyclic");
        assert!(err.cycle.len() >= 2);
        // every consecutive pair on the reported cycle is an arc
        for w in err.cycle.windows(2) {
            assert!(d.has_arc(w[0], w[1]));
        }
        assert!(d.has_arc(*err.cycle.last().expect("nonempty"), err.cycle[0]));
        assert!(!d.is_acyclic());
    }

    #[test]
    fn closure_of_chain() {
        let d = dag(4, [(0, 1), (1, 2), (2, 3)]);
        let c = d.transitive_closure().expect("acyclic");
        assert_eq!(c.arc_count(), 6);
        assert!(c.has_arc(0, 3));
        assert!(c.is_transitive());
    }

    #[test]
    fn earliest_and_latest_starts() {
        let d = dag(3, [(0, 1), (1, 2)]);
        let w = [2u64, 3, 1];
        assert_eq!(d.earliest_starts(&w).expect("acyclic"), vec![0, 2, 5]);
        let latest = d.latest_starts(&w, 6).expect("acyclic");
        assert_eq!(latest, vec![Some(0), Some(2), Some(5)]);
        let impossible = d.latest_starts(&w, 5).expect("acyclic");
        assert_eq!(impossible[0], None);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let d = Dag::new(0);
        assert!(d.topological_order().expect("trivially acyclic").is_empty());
        assert!(d.earliest_starts(&[]).expect("acyclic").is_empty());
    }

    fn random_dag(n: usize, density: f64, seed: u64) -> Dag {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut d = Dag::new(n);
        for v in 1..n {
            for u in 0..v {
                if next() < density {
                    d.add_arc(u, v); // arcs go low -> high: always acyclic
                }
            }
        }
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn closure_is_transitive(n in 1usize..12, seed in 0u64..100) {
            let d = random_dag(n, 0.3, seed);
            let c = d.transitive_closure().expect("acyclic by construction");
            prop_assert!(c.is_transitive());
            for (u, v) in d.arcs() {
                prop_assert!(c.has_arc(u, v));
            }
        }

        #[test]
        fn earliest_starts_respect_arcs(n in 1usize..12, seed in 0u64..100) {
            let d = random_dag(n, 0.4, seed);
            let w: Vec<u64> = (0..n as u64).map(|v| 1 + v % 4).collect();
            let s = d.earliest_starts(&w).expect("acyclic");
            for (u, v) in d.arcs() {
                prop_assert!(s[v] >= s[u] + w[u]);
            }
        }
    }
}
