//! Dense small-graph primitives used by the packing-class solver.
//!
//! The packing-class method of Fekete–Schepers–Köhler–Teich works on
//! *component graphs* over the set of tasks — one vertex per task, at most a
//! few dozen vertices in any realistic FPGA reconfiguration instance. This
//! crate therefore optimizes for **small, dense** graphs: adjacency is a
//! bitset matrix with packed 256-bit-block rows, vertex sets are
//! block-layout [`BitSet`]s (stored inline, allocation-free, up to 256
//! vertices) with fused wide-word kernels, and all algorithms are exact.
//!
//! Provided machinery:
//!
//! * [`BitSet`] — fixed-capacity bitset for vertex sets;
//! * [`DenseGraph`] — undirected graph with bitset adjacency rows;
//! * [`PairIndex`] — triangular indexing of unordered vertex pairs, the
//!   address space of the solver's edge-state tables;
//! * [`cliques`] — exact maximum-weight clique search (Bron–Kerbosch style
//!   with weight pruning), the query behind the solver's C2 rule.
//!
//! Condition C1 (every component graph is an interval graph) needs no
//! recognizer here: the solver accepts a packing class constructively, by
//! transitively orienting each complement graph (`recopack-order`) and
//! verifying the placement laid out from those orders.
//!
//! # Example
//!
//! ```
//! use recopack_graph::{cliques, DenseGraph};
//!
//! // Edges join tasks whose projections are disjoint; such a clique must
//! // fit side by side, so C2 compares its total width with the chip's.
//! let g = DenseGraph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
//! let widest = cliques::max_weight_clique(&g, &[3, 2, 4, 8]);
//! assert_eq!(widest.weight, 12); // {2, 3} outweighs the triangle {0, 1, 2}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod cliques;
mod dense;
mod pairs;

pub use bitset::BitSet;
pub use dense::DenseGraph;
pub use pairs::PairIndex;
