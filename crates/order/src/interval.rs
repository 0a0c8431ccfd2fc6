//! Coordinate realization of interval orders.
//!
//! In each dimension the packing-class solver fixes which task pairs must
//! have disjoint projections — the comparability graph, the complement of
//! the component graph — and orients those pairs transitively with
//! [`transitively_orient_extending`](crate::orientation::transitively_orient_extending).
//! A transitive orientation of a co-interval graph is an interval order;
//! [`realize_from_order`] lays it out as coordinates by longest weighted
//! chains. Condition **C1** is thereby accepted constructively: the solver
//! verifies the placement it lays out instead of recognizing interval
//! graphs.

use crate::Dag;

/// A realization of an interval order as concrete coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Realization {
    /// Start coordinate of each vertex's interval.
    pub starts: Vec<u64>,
    /// Total extent `max(start + length)` of the layout, saturating at
    /// `u64::MAX`.
    pub extent: u64,
}

/// Lays out intervals whose pairwise *disjointness* is prescribed by a
/// transitive orientation.
///
/// Given the orientation `order` ("u before v") and interval `lengths`, each
/// start is the longest weighted chain of strict predecessors — the greedy
/// earliest layout. Comparable pairs come out disjoint in the prescribed
/// direction; the extent equals the longest weighted chain of the order.
/// Starts and extent saturate at `u64::MAX`, so a layout that passes `u64`
/// reads `u64::MAX` and its last box ends past `u64`, which placement
/// verification rejects.
///
/// # Panics
///
/// Panics if `order` is cyclic (a transitive orientation never is) or if
/// `lengths.len()` differs from the vertex count.
pub fn realize_from_order(order: &Dag, lengths: &[u64]) -> Realization {
    let starts = order
        .earliest_starts(lengths)
        .expect("transitive orientations are acyclic");
    let extent = starts
        .iter()
        .zip(lengths)
        .map(|(s, l)| s.saturating_add(*l))
        .max()
        .unwrap_or(0);
    Realization { starts, extent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::transitively_orient_extending;
    use proptest::prelude::*;
    use recopack_graph::DenseGraph;

    fn random_intervals(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(17);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 20
        };
        let starts: Vec<u64> = (0..n).map(|_| next()).collect();
        let lengths: Vec<u64> = (0..n).map(|_| 1 + next() % 8).collect();
        (starts, lengths)
    }

    /// Whether interval `u` ends no later than interval `v` starts.
    fn before(starts: &[u64], lengths: &[u64], u: usize, v: usize) -> bool {
        starts[u] + lengths[u] <= starts[v]
    }

    /// The comparability graph of the intervals: an edge joins every pair
    /// whose intervals are disjoint.
    fn disjointness_graph(starts: &[u64], lengths: &[u64]) -> DenseGraph {
        let n = starts.len();
        let mut g = DenseGraph::new(n);
        for v in 1..n {
            for u in 0..v {
                if before(starts, lengths, u, v) || before(starts, lengths, v, u) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    #[test]
    fn realization_respects_order() {
        // Overlaps 0-1 and 1-2 leave {0, 2} as the one disjoint pair.
        let comp = DenseGraph::from_edges(3, [(0, 2)]);
        let order = transitively_orient_extending(&comp, []).expect("one edge orients");
        let r = realize_from_order(&order, &[3, 3, 3]);
        let (a, b) = if order.has_arc(0, 2) { (0, 2) } else { (2, 0) };
        assert!(r.starts[a] + 3 <= r.starts[b]);
        assert!(r.extent <= 9);
    }

    #[test]
    fn seeded_realization_orders_as_demanded() {
        // All pairs disjoint: the comparability graph is a triangle.
        let comp = DenseGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let order = transitively_orient_extending(&comp, [(2, 1), (1, 0)])
            .expect("total order is transitive");
        let r = realize_from_order(&order, &[2, 2, 2]);
        assert!(r.starts[2] + 2 <= r.starts[1]);
        assert!(r.starts[1] + 2 <= r.starts[0]);
        assert_eq!(r.extent, 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn realization_separates_all_comparable_pairs(n in 1usize..9, seed in 0u64..100) {
            let (starts, lengths) = random_intervals(n, seed);
            let comp = disjointness_graph(&starts, &lengths);
            let order = transitively_orient_extending(&comp, [])
                .expect("disjointness graphs of intervals orient");
            let r = realize_from_order(&order, &lengths);
            for (u, v) in comp.edges() {
                // Comparable pair: realized intervals must be disjoint.
                let (su, eu) = (r.starts[u], r.starts[u] + lengths[u]);
                let (sv, ev) = (r.starts[v], r.starts[v] + lengths[v]);
                prop_assert!(eu <= sv || ev <= su);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The forcing engine against an orientation built without it: the
        /// generator's own interval order, `u → v` iff `u` ends before `v`
        /// starts.
        #[test]
        fn agrees_with_forcing_engine(n in 1usize..10, seed in 0u64..150) {
            let (starts, lengths) = random_intervals(n, seed);
            let comp = disjointness_graph(&starts, &lengths);
            let mut reference = Dag::new(n);
            for (u, v) in comp.edges() {
                if before(&starts, &lengths, u, v) {
                    reference.add_arc(u, v);
                } else {
                    reference.add_arc(v, u);
                }
            }
            prop_assert!(reference.is_transitive());
            let forced = transitively_orient_extending(&comp, [])
                .expect("disjointness graphs of intervals orient");
            prop_assert_eq!(forced.arc_count(), reference.arc_count());
            // Chains are cliques of `comp` whichever way it is oriented, so
            // both orders realize the same longest chain; the original
            // layout realizes the reference, so neither can exceed it.
            let original = starts.iter().zip(&lengths).map(|(s, l)| s + l).max().unwrap_or(0);
            let via_reference = realize_from_order(&reference, &lengths).extent;
            let via_forcing = realize_from_order(&forced, &lengths).extent;
            prop_assert_eq!(via_reference, via_forcing);
            prop_assert!(via_reference <= original);
        }
    }
}
