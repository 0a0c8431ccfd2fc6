//! Exact maximum-weight clique search.
//!
//! The packing-class condition **C2** bounds the total width of every stable
//! set of a component graph — equivalently, of every clique of its
//! complement. The solver checks it by maximum-weight clique queries on the
//! (small) graphs of fixed comparability edges, so an exact weighted clique
//! routine is a core substrate.

use crate::{BitSet, DenseGraph};

/// Result of a maximum-weight clique search: the clique and its total weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedClique {
    /// Vertices of the clique.
    pub vertices: BitSet,
    /// Sum of the vertex weights.
    pub weight: u64,
}

/// Finds a maximum-weight clique of `g` under vertex `weights`.
///
/// Branch-and-bound in the Bron–Kerbosch style: candidates are pruned when
/// even taking *all* remaining candidate weight cannot beat the incumbent.
/// Exact; intended for the small graphs of the packing-class method
/// (exponential worst case, as the problem is NP-hard in general).
///
/// # Panics
///
/// Panics if `weights.len() != g.vertex_count()`.
///
/// # Example
///
/// ```
/// use recopack_graph::{cliques::max_weight_clique, DenseGraph};
///
/// let g = DenseGraph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
/// let best = max_weight_clique(&g, &[1, 1, 1, 10]);
/// assert_eq!(best.weight, 11); // {2, 3} beats the triangle {0, 1, 2}
/// ```
pub fn max_weight_clique(g: &DenseGraph, weights: &[u64]) -> WeightedClique {
    assert_eq!(
        weights.len(),
        g.vertex_count(),
        "one weight per vertex required"
    );
    max_weight_clique_containing(g, weights, &BitSet::new(g.vertex_count()))
        .expect("the empty seed is always a clique")
}

/// Reusable scratch for the seeded clique search: one candidate set and one
/// branch-order buffer per recursion depth, plus the incumbent clique.
///
/// The solver calls [`max_weight_clique_weight_containing`] on every fixed
/// comparability edge, deep inside the search inner loop; routing those
/// calls through a per-worker workspace keeps the steady-state path free of
/// heap allocations. The workspace sizes itself lazily to the queried
/// graph's vertex count and reallocates only when that count changes.
#[derive(Debug)]
pub struct CliqueWorkspace {
    /// Vertex count the buffers are currently sized for.
    n: usize,
    /// Candidate set per recursion depth (a clique has at most `n` vertices,
    /// so depth never exceeds `n`; one extra level for the empty tail).
    cands: Vec<BitSet>,
    /// Branch-order buffer per recursion depth.
    orders: Vec<Vec<usize>>,
    /// The all-vertices set, kept around to seed `cands[0]` by copy.
    full: BitSet,
    /// The clique currently being grown.
    current: BitSet,
    /// Vertices of the best clique found so far.
    best_vertices: BitSet,
    /// `expand` calls made by the most recent query (search-tree size).
    nodes: u64,
}

impl Default for CliqueWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl CliqueWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self {
            n: 0,
            cands: Vec::new(),
            orders: Vec::new(),
            full: BitSet::new(0),
            current: BitSet::new(0),
            best_vertices: BitSet::new(0),
            nodes: 0,
        }
    }

    /// Number of `expand` calls (search-tree nodes) in the most recent
    /// query. Pinned by regression tests: bound bookkeeping rewrites must
    /// not change what the search explores.
    pub fn nodes_expanded(&self) -> u64 {
        self.nodes
    }

    /// Ensures every buffer fits a graph of `n` vertices.
    fn fit(&mut self, n: usize) {
        if self.n == n && !self.cands.is_empty() {
            return;
        }
        self.n = n;
        self.cands = (0..=n).map(|_| BitSet::new(n)).collect();
        self.orders = (0..=n).map(|_| Vec::with_capacity(n)).collect();
        self.full = BitSet::full(n);
        self.current = BitSet::new(n);
        self.best_vertices = BitSet::new(n);
    }
}

/// Finds a maximum-weight clique of `g` that contains all vertices of `seed`.
///
/// Returns `None` if `seed` itself is not a clique. Used by the solver for
/// incremental C2 checks: after fixing a comparability edge `{u, v}`, only
/// cliques through that edge can newly violate the width bound.
pub fn max_weight_clique_containing(
    g: &DenseGraph,
    weights: &[u64],
    seed: &BitSet,
) -> Option<WeightedClique> {
    let mut ws = CliqueWorkspace::new();
    let weight = max_weight_clique_weight_containing(&mut ws, g, weights, seed)?;
    Some(WeightedClique {
        vertices: ws.best_vertices.clone(),
        weight,
    })
}

/// Weight-only variant of [`max_weight_clique_containing`] running entirely
/// inside a caller-provided [`CliqueWorkspace`].
///
/// Allocation-free once `ws` has been sized to `g.vertex_count()` (the
/// first call, or a call after the vertex count changed, pays a one-time
/// resize). The search itself is identical to the allocating variant:
/// branch-and-bound over common neighbors of the seed, candidates taken in
/// decreasing weight order.
pub fn max_weight_clique_weight_containing(
    ws: &mut CliqueWorkspace,
    g: &DenseGraph,
    weights: &[u64],
    seed: &BitSet,
) -> Option<u64> {
    if !g.is_clique(seed) {
        return None;
    }
    ws.fit(g.vertex_count());
    // Candidates: common neighbors of the whole seed.
    ws.cands[0].copy_from(&ws.full);
    for v in seed.iter() {
        ws.cands[0].intersect_with(g.neighbors(v));
    }
    ws.cands[0].difference_with(seed);

    let seed_weight = seed.weight_sum(weights);
    let root_remaining = ws.cands[0].weight_sum(weights);
    ws.current.copy_from(seed);
    ws.best_vertices.copy_from(seed);
    ws.nodes = 0;
    let mut best_weight = seed_weight;
    let cx = SearchCx { g, weights };
    expand(&cx, ws, 0, seed_weight, root_remaining, &mut best_weight);
    Some(best_weight)
}

/// Query-constant inputs of the clique search, bundled so `expand` passes
/// one pointer down the recursion.
struct SearchCx<'a> {
    g: &'a DenseGraph,
    weights: &'a [u64],
}

fn expand(
    cx: &SearchCx<'_>,
    ws: &mut CliqueWorkspace,
    depth: usize,
    current_weight: u64,
    mut remaining: u64,
    best_weight: &mut u64,
) {
    ws.nodes += 1;
    if current_weight > *best_weight {
        *best_weight = current_weight;
        ws.best_vertices.copy_from(&ws.current);
    }
    // Upper bound: everything remaining joins the clique. `remaining` is
    // the weight sum of `cands[depth]`, maintained incrementally — it only
    // changes when this frame removes a branched candidate below (children
    // touch `cands[depth + 1..]` only), so re-summing the set per candidate
    // (the old O(n²)-per-node behavior) is never needed.
    if current_weight.saturating_add(remaining) <= *best_weight {
        return;
    }
    // Branch on candidates in decreasing weight order (ties by vertex id,
    // so exploration is deterministic): good incumbents early.
    let mut order = std::mem::take(&mut ws.orders[depth]);
    order.clear();
    order.extend(ws.cands[depth].iter());
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(cx.weights[v]), v));
    for &v in &order {
        // The bound is checked while `v` still counts toward `remaining`,
        // exactly as the old per-iteration re-sum did.
        if current_weight.saturating_add(remaining) <= *best_weight {
            break;
        }
        // `remove` doubles as the membership test: earlier iterations of
        // this loop have already consumed their candidates.
        if !ws.cands[depth].remove(v) {
            continue;
        }
        // A saturated bound stays saturated: it still bounds what is left.
        if remaining < u64::MAX {
            remaining -= cx.weights[v];
        }
        // Child candidates: survivors of this level that also see `v`; the
        // fused kernel builds the set and its remaining-weight bound in one
        // pass.
        let (head, tail) = ws.cands.split_at_mut(depth + 1);
        let child_remaining =
            tail[0].intersect_into_weight_sum(&head[depth], cx.g.neighbors(v), cx.weights);
        ws.current.insert(v);
        expand(
            cx,
            ws,
            depth + 1,
            current_weight.saturating_add(cx.weights[v]),
            child_remaining,
            best_weight,
        );
        ws.current.remove(v);
    }
    ws.orders[depth] = order;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_force_max_clique(g: &DenseGraph, weights: &[u64]) -> u64 {
        let n = g.vertex_count();
        assert!(n <= 20);
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let set: BitSet = {
                let mut s = BitSet::new(n);
                s.extend((0..n).filter(|&v| mask & (1 << v) != 0));
                s
            };
            if g.is_clique(&set) {
                best = best.max(set.iter().map(|v| weights[v]).sum());
            }
        }
        best
    }

    fn random_graph(n: usize, density: f64, seed: u64) -> DenseGraph {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
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
    fn triangle_with_heavy_pendant() {
        let g = DenseGraph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let best = max_weight_clique(&g, &[1, 1, 1, 10]);
        assert_eq!(best.weight, 11);
        assert!(best.vertices.contains(2) && best.vertices.contains(3));
    }

    #[test]
    fn empty_graph_max_clique_is_heaviest_vertex() {
        let g = DenseGraph::new(3);
        let best = max_weight_clique(&g, &[4, 9, 2]);
        assert_eq!(best.weight, 9);
        assert_eq!(best.vertices.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn zero_vertices() {
        let g = DenseGraph::new(0);
        let best = max_weight_clique(&g, &[]);
        assert_eq!(best.weight, 0);
    }

    #[test]
    fn seeded_search_restricts_to_supersets() {
        let g = DenseGraph::from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]);
        let mut seed = BitSet::new(5);
        seed.extend([3, 4]);
        let best =
            max_weight_clique_containing(&g, &[5, 5, 5, 1, 1], &seed).expect("{3,4} is an edge");
        assert_eq!(best.weight, 2);
    }

    #[test]
    fn seeded_search_rejects_non_clique_seed() {
        let g = DenseGraph::new(3);
        let mut seed = BitSet::new(3);
        seed.extend([0, 1]);
        assert!(max_weight_clique_containing(&g, &[1, 1, 1], &seed).is_none());
    }

    #[test]
    fn workspace_reuse_matches_fresh_searches() {
        // One workspace across differently-sized graphs and repeated
        // queries: every answer must match the allocating entry point.
        let mut ws = CliqueWorkspace::new();
        for n in [3usize, 5, 5, 4] {
            for seed_id in 0..40u64 {
                let g = random_graph(n, 0.6, seed_id);
                let weights: Vec<u64> = (0..n as u64).map(|v| 1 + (v * 5 + seed_id) % 9).collect();
                for u in 0..n {
                    for v in u + 1..n {
                        let mut seed = BitSet::new(n);
                        seed.extend([u, v]);
                        let fresh = max_weight_clique_containing(&g, &weights, &seed);
                        let reused =
                            max_weight_clique_weight_containing(&mut ws, &g, &weights, &seed);
                        assert_eq!(
                            fresh.map(|c| c.weight),
                            reused,
                            "n={n} seed={seed_id} ({u},{v})"
                        );
                    }
                }
            }
        }
    }

    /// The pre-incremental `expand`: recomputes the remaining-weight bound
    /// by re-summing the candidate set on entry and per branched candidate.
    /// Kept as the reference the incremental bookkeeping must match —
    /// weight for weight, node for node.
    #[allow(clippy::too_many_arguments)]
    fn reference_expand(
        g: &DenseGraph,
        weights: &[u64],
        cands: &mut Vec<BitSet>,
        current: &mut BitSet,
        depth: usize,
        current_weight: u64,
        best_weight: &mut u64,
        nodes: &mut u64,
    ) {
        *nodes += 1;
        if current_weight > *best_weight {
            *best_weight = current_weight;
        }
        let remaining: u64 = cands[depth].iter().map(|v| weights[v]).sum();
        if current_weight + remaining <= *best_weight {
            return;
        }
        let mut order: Vec<usize> = cands[depth].iter().collect();
        order.sort_unstable_by_key(|&v| (std::cmp::Reverse(weights[v]), v));
        for &v in &order {
            let remaining_now: u64 = cands[depth].iter().map(|u| weights[u]).sum();
            if current_weight + remaining_now <= *best_weight {
                break;
            }
            if !cands[depth].contains(v) {
                continue;
            }
            cands[depth].remove(v);
            let (head, tail) = cands.split_at_mut(depth + 1);
            tail[0].copy_from(&head[depth]);
            tail[0].intersect_with(g.neighbors(v));
            current.insert(v);
            reference_expand(
                g,
                weights,
                cands,
                current,
                depth + 1,
                current_weight + weights[v],
                best_weight,
                nodes,
            );
            current.remove(v);
        }
    }

    fn reference_search(g: &DenseGraph, weights: &[u64]) -> (u64, u64) {
        let n = g.vertex_count();
        let mut cands: Vec<BitSet> = (0..=n).map(|_| BitSet::new(n)).collect();
        cands[0] = BitSet::full(n);
        let mut current = BitSet::new(n);
        let mut best = 0;
        let mut nodes = 0;
        reference_expand(
            g,
            weights,
            &mut cands,
            &mut current,
            0,
            0,
            &mut best,
            &mut nodes,
        );
        (best, nodes)
    }

    #[test]
    fn incremental_bound_is_search_neutral() {
        // The incremental remaining-weight bookkeeping must explore exactly
        // the tree the old per-candidate re-sum explored: same best weight
        // AND same node count on every instance.
        let mut ws = CliqueWorkspace::new();
        let empty_seeds: Vec<BitSet> = (3..=12).map(BitSet::new).collect();
        for n in 3usize..=12 {
            for seed_id in 0..30u64 {
                let g = random_graph(n, 0.55, seed_id);
                let weights: Vec<u64> = (0..n as u64).map(|v| 1 + (v * 7 + seed_id) % 13).collect();
                let (ref_best, ref_nodes) = reference_search(&g, &weights);
                let got =
                    max_weight_clique_weight_containing(&mut ws, &g, &weights, &empty_seeds[n - 3])
                        .unwrap();
                assert_eq!(got, ref_best, "weight n={n} seed={seed_id}");
                assert_eq!(
                    ws.nodes_expanded(),
                    ref_nodes,
                    "node count n={n} seed={seed_id}"
                );
            }
        }
    }

    #[test]
    fn pinned_search_tree_sizes() {
        // Exact node counts on fixed instances: any future change to the
        // bound, the branch order, or the candidate bookkeeping that moves
        // these numbers is changing what the search explores.
        let mut ws = CliqueWorkspace::new();
        let mut pinned = Vec::new();
        for (n, seed_id) in [(8usize, 1u64), (10, 2), (12, 3), (14, 4)] {
            let g = random_graph(n, 0.6, seed_id);
            let weights: Vec<u64> = (0..n as u64).map(|v| 1 + (v * 7 + seed_id) % 13).collect();
            let best = max_weight_clique_weight_containing(&mut ws, &g, &weights, &BitSet::new(n))
                .unwrap();
            pinned.push((best, ws.nodes_expanded()));
        }
        assert_eq!(pinned, PINNED);
    }

    /// `(best_weight, nodes_expanded)` per pinned instance, cross-checked
    /// against `reference_search` in `pinned_stats_match_reference`.
    const PINNED: [(u64, u64); 4] = [(32, 7), (28, 9), (40, 10), (42, 24)];

    #[test]
    fn pinned_stats_match_reference() {
        let computed: Vec<(u64, u64)> = [(8usize, 1u64), (10, 2), (12, 3), (14, 4)]
            .into_iter()
            .map(|(n, seed_id)| {
                let g = random_graph(n, 0.6, seed_id);
                let weights: Vec<u64> = (0..n as u64).map(|v| 1 + (v * 7 + seed_id) % 13).collect();
                reference_search(&g, &weights)
            })
            .collect();
        assert_eq!(computed, PINNED);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_brute_force(n in 1usize..10, seed in 0u64..200, d in 0.2f64..0.9) {
            let g = random_graph(n, d, seed);
            let weights: Vec<u64> = (0..n as u64).map(|v| 1 + (v * 7 + seed) % 13).collect();
            let best = max_weight_clique(&g, &weights);
            prop_assert!(g.is_clique(&best.vertices));
            prop_assert_eq!(
                best.weight,
                brute_force_max_clique(&g, &weights)
            );
            prop_assert_eq!(best.weight, best.vertices.iter().map(|v| weights[v]).sum::<u64>());
        }
    }
}
