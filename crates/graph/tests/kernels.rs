//! Differential tests for the wide-word bitset kernels.
//!
//! Every fused kernel in `recopack_graph::BitSet` is checked against a
//! scalar reference built from the primitive set operations, on random sets
//! whose capacities straddle word (64) and block (256) boundaries — the
//! places where the packed layout's tail masking and whole-block loops can
//! go wrong. `DenseGraph`'s packed-row clique predicate is likewise checked
//! against the old per-edge loop.

use proptest::prelude::*;
use recopack_graph::{BitSet, DenseGraph};

/// Capacities around the word and block boundaries of the packed layout.
const CAPS: &[usize] = &[1, 63, 64, 65, 127, 128, 255, 256, 257, 300, 511, 512, 513];

fn set_from(cap: usize, bits: &[usize]) -> BitSet {
    let mut s = BitSet::new(cap);
    s.extend(bits.iter().map(|&b| b % cap));
    s
}

/// Raw ingredients for four random sets on a shared capacity drawn from
/// [`CAPS`] (the vendored proptest subset has no `prop_map`, so tests
/// assemble the sets from these in their bodies).
fn bits() -> proptest::collection::VecStrategy<std::ops::Range<usize>> {
    proptest::collection::vec(0..1024usize, 0..96)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn intersect_into_matches_clone_and_intersect(ci in 0..CAPS.len(), ab in bits(), bb in bits(), cb in bits(), db in bits()) {
        let cap = CAPS[ci];
        let a = set_from(cap, &ab);
        let b = set_from(cap, &bb);
        let mut fused = BitSet::new(cap);
        fused.intersect_into(&a, &b);
        let mut reference = a.clone();
        reference.intersect_with(&b);
        prop_assert_eq!(&fused, &reference);
    }

    #[test]
    fn and_not_cursor_matches_materialized_difference(ci in 0..CAPS.len(), ab in bits(), bb in bits(), cb in bits(), db in bits(), start in 0usize..600) {
        let cap = CAPS[ci];
        let a = set_from(cap, &ab);
        let b = set_from(cap, &bb);
        let mut diff = a.clone();
        diff.difference_with(&b);
        let start = start % (cap + 1);
        prop_assert_eq!(a.and_not_next(&b, start), diff.next_at_or_after(start));
        // Full cursor sweep enumerates exactly the difference.
        let mut swept = Vec::new();
        let mut from = 0;
        while let Some(x) = a.and_not_next(&b, from) {
            from = x + 1;
            swept.push(x);
        }
        prop_assert_eq!(swept, diff.iter().collect::<Vec<_>>());
    }

    #[test]
    fn majority_matches_pairwise_intersections(ci in 0..CAPS.len(), ab in bits(), bb in bits(), cb in bits(), db in bits()) {
        let cap = CAPS[ci];
        let a = set_from(cap, &ab);
        let b = set_from(cap, &bb);
        let c = set_from(cap, &cb);
        let mut fused = BitSet::new(cap);
        fused.majority_into(&a, &b, &c);
        let mut reference = a.intersection(&b);
        reference.union_with(&a.intersection(&c));
        reference.union_with(&b.intersection(&c));
        prop_assert_eq!(&fused, &reference);
        // Element-wise: in the majority iff in at least two inputs.
        for v in 0..cap {
            let votes = [&a, &b, &c].iter().filter(|s| s.contains(v)).count();
            prop_assert_eq!(fused.contains(v), votes >= 2, "v={}", v);
        }
    }

    #[test]
    fn intersect2_union_matches_composition(ci in 0..CAPS.len(), ab in bits(), bb in bits(), cb in bits(), db in bits()) {
        let cap = CAPS[ci];
        let a = set_from(cap, &ab);
        let b = set_from(cap, &bb);
        let c = set_from(cap, &cb);
        let d = set_from(cap, &db);
        let mut fused = BitSet::new(cap);
        fused.intersect2_union_into(&a, &b, &c, &d);
        let mut reference = a.intersection(&b);
        reference.union_with(&c.intersection(&d));
        prop_assert_eq!(&fused, &reference);
    }

    #[test]
    fn weight_sums_match_iteration(ci in 0..CAPS.len(), ab in bits(), bb in bits(), cb in bits(), db in bits()) {
        let cap = CAPS[ci];
        let a = set_from(cap, &ab);
        let b = set_from(cap, &bb);
        let weights: Vec<u64> = (0..cap as u64).map(|v| v * v + 1).collect();
        let reference: u64 = a.iter().map(|v| weights[v]).sum();
        prop_assert_eq!(a.weight_sum(&weights), reference);
        let mut dst = BitSet::new(cap);
        let sum = dst.intersect_into_weight_sum(&a, &b, &weights);
        prop_assert_eq!(&dst, &a.intersection(&b));
        prop_assert_eq!(sum, dst.iter().map(|v| weights[v]).sum::<u64>());
    }

    #[test]
    fn masked_below_kernels_match_take_while(ci in 0..CAPS.len(), ab in bits(), bb in bits(), cb in bits(), db in bits(), limit in 0usize..600) {
        let cap = CAPS[ci];
        let a = set_from(cap, &ab);
        let b = set_from(cap, &bb);
        let limit = limit % (cap + 1);
        let subset = a.iter().take_while(|&v| v < limit).all(|v| b.contains(v));
        prop_assert_eq!(a.is_subset_below(&b, limit), subset);
    }

    #[test]
    fn cursor_origin_is_the_first_element(ci in 0..CAPS.len(), ab in bits(), bb in bits(), cb in bits(), db in bits()) {
        let cap = CAPS[ci];
        let a = set_from(cap, &ab);
        prop_assert_eq!(a.next_at_or_after(0), a.iter().next());
    }

    #[test]
    fn clone_round_trips_across_storage_variants(ci in 0..CAPS.len(), ab in bits(), bb in bits(), cb in bits(), db in bits()) {
        let cap = CAPS[ci];
        let a = set_from(cap, &ab);
        let _ = cap;
        // Inline (≤ 256) and heap (> 256) variants must clone and compare
        // identically.
        let cloned = a.clone();
        prop_assert_eq!(&cloned, &a);
        prop_assert_eq!(cloned.len(), a.len());
        prop_assert_eq!(cloned.iter().collect::<Vec<_>>(), a.iter().collect::<Vec<_>>());
    }
}

/// Per-edge reference for `DenseGraph::is_clique`, as written before the
/// packed-row kernels.
fn is_clique_per_edge(g: &DenseGraph, set: &BitSet) -> bool {
    set.iter()
        .all(|u| set.iter().take_while(|&v| v < u).all(|v| g.has_edge(u, v)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn packed_row_clique_check_matches_per_edge_loop(
        n in 1usize..80,
        edges in proptest::collection::vec((0usize..80, 0usize..80), 0..200),
        members in proptest::collection::vec(0usize..80, 0..40),
    ) {
        let g = DenseGraph::from_edges(
            n,
            edges
                .into_iter()
                .map(|(u, v)| (u % n, v % n))
                .filter(|&(u, v)| u != v),
        );
        let set = set_from(n, &members);
        prop_assert_eq!(g.is_clique(&set), is_clique_per_edge(&g, &set));
    }
}
