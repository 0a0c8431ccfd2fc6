//! Dense undirected graphs with bitset adjacency rows.

use crate::BitSet;

/// An undirected graph on vertices `0..n` with bitset adjacency rows.
///
/// Optimized for the small dense graphs of the packing-class method
/// (component graphs over task sets). No self-loops, no multi-edges.
///
/// # Example
///
/// ```
/// use recopack_graph::DenseGraph;
///
/// let mut g = DenseGraph::new(3);
/// g.add_edge(0, 1);
/// assert!(g.has_edge(1, 0));
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DenseGraph {
    n: usize,
    adj: Vec<BitSet>,
    edge_count: usize,
}

impl DenseGraph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            adj: (0..n).map(|_| BitSet::new(n)).collect(),
            edge_count: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = Self::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds the edge `{u, v}`, returning whether it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u != v, "self-loop at {u}");
        assert!(u < self.n && v < self.n, "vertex out of range");
        let added = self.adj[u].insert(v);
        self.adj[v].insert(u);
        if added {
            self.edge_count += 1;
        }
        added
    }

    /// Removes the edge `{u, v}`, returning whether it was present.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        let removed = self.adj[u].remove(v);
        self.adj[v].remove(u);
        if removed {
            self.edge_count -= 1;
        }
        removed
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && self.adj[u].contains(v)
    }

    /// The neighborhood of `u` as a bitset.
    pub fn neighbors(&self, u: usize) -> &BitSet {
        &self.adj[u]
    }

    /// Iterates over all edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.adj[u]
                .iter()
                .filter(move |&v| v > u)
                .map(move |v| (u, v))
        })
    }

    /// Whether `set` is a clique (pairwise adjacent). Allocation-free: the
    /// solver asks this on every fixed comparability edge. Each member `u`
    /// is checked against its packed adjacency row with one masked-word
    /// sweep over the elements below `u`, instead of a per-edge loop.
    pub fn is_clique(&self, set: &BitSet) -> bool {
        set.iter().all(|u| set.is_subset_below(&self.adj[u], u))
    }
}

impl std::fmt::Debug for DenseGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseGraph(n={}, edges=", self.n)?;
        f.debug_list().entries(self.edges()).finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_edges() {
        let mut g = DenseGraph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert_eq!(g.edge_count(), 1);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn clique_checks() {
        let g = DenseGraph::from_edges(4, [(0, 1), (1, 2), (0, 2)]);
        let mut tri = BitSet::new(4);
        tri.extend([0, 1, 2]);
        assert!(g.is_clique(&tri));
        let mut pair = BitSet::new(4);
        pair.extend([0, 3]);
        assert!(!g.is_clique(&pair));
    }
}
