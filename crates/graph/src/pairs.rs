//! Triangular indexing of unordered vertex pairs.

/// Maps unordered pairs `{u, v}` of `0..n` to a dense index `0..n*(n-1)/2`.
///
/// The packing-class solver keeps one state per (pair, dimension); this type
/// is the address computation for those tables, kept in one place so the
/// layout can never drift between the solver and its propagators.
///
/// Pairs are ordered colexicographically: all pairs `{u, v}` with `v` fixed
/// and `u < v` are contiguous, i.e. `index({u, v}) = v*(v-1)/2 + u`.
///
/// # Example
///
/// ```
/// use recopack_graph::PairIndex;
///
/// let idx = PairIndex::new(4);
/// assert_eq!(idx.pair_count(), 6);
/// assert_eq!(idx.index(2, 1), idx.index(1, 2));
/// let (u, v) = idx.pair(idx.index(1, 2));
/// assert_eq!((u, v), (1, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairIndex {
    n: usize,
}

impl PairIndex {
    /// Creates an index over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self { n }
    }

    /// The number of unordered pairs, `n*(n-1)/2`.
    pub fn pair_count(&self) -> usize {
        self.n * self.n.saturating_sub(1) / 2
    }

    /// The dense index of the unordered pair `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either vertex is out of range.
    pub fn index(&self, u: usize, v: usize) -> usize {
        assert!(u != v, "pair requires distinct vertices, got {u} twice");
        assert!(u < self.n && v < self.n, "vertex out of range");
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        hi * (hi - 1) / 2 + lo
    }

    /// The pair `(u, v)` with `u < v` for a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `p >= pair_count()`.
    pub fn pair(&self, p: usize) -> (usize, usize) {
        assert!(p < self.pair_count(), "pair index {p} out of range");
        // hi = floor((1 + sqrt(1 + 8p)) / 2); refine to be exact.
        let mut hi = ((1.0 + (1.0 + 8.0 * p as f64).sqrt()) / 2.0) as usize;
        while hi * (hi - 1) / 2 > p {
            hi -= 1;
        }
        while (hi + 1) * hi / 2 <= p {
            hi += 1;
        }
        let lo = p - hi * (hi - 1) / 2;
        (lo, hi)
    }

    /// Iterates over all pairs as `(index, u, v)` with `u < v`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (1..self.n).flat_map(move |v| (0..v).map(move |u| (self.index(u, v), u, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_small() {
        let idx = PairIndex::new(6);
        let mut seen = vec![false; idx.pair_count()];
        for v in 0..6 {
            for u in 0..v {
                let p = idx.index(u, v);
                assert!(!seen[p], "index collision at {p}");
                seen[p] = true;
                assert_eq!(idx.pair(p), (u, v));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn symmetric() {
        let idx = PairIndex::new(10);
        assert_eq!(idx.index(3, 7), idx.index(7, 3));
    }

    #[test]
    fn iter_covers_all_pairs_once() {
        let idx = PairIndex::new(7);
        let items: Vec<_> = idx.iter().collect();
        assert_eq!(items.len(), idx.pair_count());
        for (p, u, v) in items {
            assert!(u < v);
            assert_eq!(idx.index(u, v), p);
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(PairIndex::new(0).pair_count(), 0);
        assert_eq!(PairIndex::new(1).pair_count(), 0);
        assert_eq!(PairIndex::new(2).pair_count(), 1);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn same_vertex_panics() {
        PairIndex::new(3).index(1, 1);
    }

    proptest! {
        #[test]
        fn roundtrip_random(n in 2usize..60, seed in 0usize..1000) {
            let idx = PairIndex::new(n);
            let p = seed % idx.pair_count();
            let (u, v) = idx.pair(p);
            prop_assert!(u < v && v < n);
            prop_assert_eq!(idx.index(u, v), p);
        }
    }
}
