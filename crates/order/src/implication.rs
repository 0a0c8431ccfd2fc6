//! Gallai path-implication classes of a comparability graph.
//!
//! Paper §4.3 partitions the comparability edges into *path implication
//! classes*: two edges are in the same class iff a sequence of path
//! implications (rule D1) links their orientations, so orienting one edge of
//! a class orients the entire class. These are Gallai's Γ-classes (up to
//! edge direction). The solver never computes them — its forcing engine
//! applies D1 edge by edge — but the structure explains why a single
//! precedence arc can cascade through the whole time dimension, and the
//! tests use the classes as an oracle for that engine.

use recopack_graph::{DenseGraph, PairIndex};

/// Disjoint-set forest over pair indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Computes the path-implication classes of the edges of `g`.
///
/// Each class is returned as a list of edges `(u, v)` with `u < v`. Two edges
/// land in one class iff they share an endpoint `a` whose other endpoints are
/// non-adjacent (one D1 step), or are linked by a chain of such steps.
///
/// # Example
///
/// ```
/// use recopack_graph::DenseGraph;
/// use recopack_order::implication::path_implication_classes;
///
/// // P3 0-1-2: both edges share endpoint 1 and {0,2} is missing -> one class.
/// let g = DenseGraph::from_edges(3, [(0, 1), (1, 2)]);
/// assert_eq!(path_implication_classes(&g).len(), 1);
///
/// // Triangle: every pair of edges shares an endpoint whose far ends are
/// // adjacent, so no D1 step applies -> three singleton classes.
/// let t = DenseGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
/// assert_eq!(path_implication_classes(&t).len(), 3);
/// ```
pub fn path_implication_classes(g: &DenseGraph) -> Vec<Vec<(usize, usize)>> {
    let n = g.vertex_count();
    let idx = PairIndex::new(n);
    let mut uf = UnionFind::new(idx.pair_count());
    for a in 0..n {
        let nbrs: Vec<usize> = g.neighbors(a).iter().collect();
        for (i, &b) in nbrs.iter().enumerate() {
            for &c in &nbrs[..i] {
                if !g.has_edge(b, c) {
                    uf.union(idx.index(a, b), idx.index(a, c));
                }
            }
        }
    }
    let mut by_root: std::collections::BTreeMap<usize, Vec<(usize, usize)>> =
        std::collections::BTreeMap::new();
    for (u, v) in g.edges() {
        let root = uf.find(idx.index(u, v));
        by_root.entry(root).or_default().push((u, v));
    }
    by_root.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_partition_the_edges() {
        let g = DenseGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let classes = path_implication_classes(&g);
        let total: usize = classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, g.edge_count());
    }

    #[test]
    fn p4_is_a_single_class() {
        let g = DenseGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(path_implication_classes(&g).len(), 1);
    }

    #[test]
    fn c4_is_a_single_class() {
        // In C4, adjacent edges share an endpoint whose far ends are
        // non-adjacent (the diagonal), so D1 chains all four edges together.
        let g = DenseGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(path_implication_classes(&g).len(), 1);
    }

    #[test]
    fn disjoint_edges_are_separate_classes() {
        let g = DenseGraph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(path_implication_classes(&g).len(), 2);
    }

    #[test]
    fn paper_figure_5_shape_single_class() {
        // Fig. 5: comparability edges {v1,v2},{v2,v3},{v3,v4} with component
        // edges {v1,v3},{v2,v4} (absent here): a path v1-v2-v3-v4 where the
        // middle edge shares endpoints with both others and the skipped
        // pairs are non-adjacent -> all three comparability edges in one
        // path implication class (as the paper states).
        let g = DenseGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let classes = path_implication_classes(&g);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].len(), 3);
    }

    #[test]
    fn empty_graph_has_no_classes() {
        assert!(path_implication_classes(&DenseGraph::new(4)).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::orientation::transitively_orient_extending;
    use proptest::prelude::*;

    fn random_graph(n: usize, density: f64, seed: u64) -> DenseGraph {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(41);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Gallai: orienting one edge of a path implication class forces the
        /// whole class — flipping the seed flips every class member.
        #[test]
        fn class_members_flip_with_their_seed(n in 2usize..8, seed in 0u64..120) {
            let g = random_graph(n, 0.5, seed);
            prop_assume!(g.edge_count() >= 1);
            let classes = path_implication_classes(&g);
            let class = &classes[0];
            let &(u, v) = &class[0];
            let Ok(fwd) = transitively_orient_extending(&g, [(u, v)]) else {
                return Ok(()); // not a comparability graph
            };
            let rev = transitively_orient_extending(&g, [(v, u)])
                .expect("comparability graphs orient both ways");
            for &(a, b) in class {
                let f = fwd.has_arc(a, b);
                let r = rev.has_arc(a, b);
                prop_assert_ne!(f, r, "class edge ({}, {}) did not flip", a, b);
            }
        }

        /// Classes are invariant under vertex order: recomputing on the same
        /// graph yields the same partition (determinism).
        #[test]
        fn classes_are_deterministic(n in 1usize..9, seed in 0u64..80) {
            let g = random_graph(n, 0.4, seed);
            prop_assert_eq!(
                path_implication_classes(&g),
                path_implication_classes(&g)
            );
        }
    }
}
