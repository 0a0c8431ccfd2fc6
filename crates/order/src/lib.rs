//! Partial orders, comparability graphs, and transitive orientations.
//!
//! The packing-class method reduces geometric packing to graph structure: in
//! every dimension the *complement* of the component graph is a comparability
//! graph, and a transitive orientation of it is an **interval order** — the
//! "comes before" relation of the box projections. Precedence constraints
//! (paper §4) are arcs that a transitive orientation of the time dimension
//! must extend, and the paper's D1 (path) / D2 (transitivity) implications
//! are exactly Gallai's forcing rules.
//!
//! This crate provides:
//!
//! * [`Dag`] — directed acyclic graphs with topological sort, transitive
//!   closure and weighted earliest/latest starts (the dependency-graph
//!   substrate);
//! * [`orientation`] — the forcing engine: orient a comparability graph
//!   transitively, extending a given partial order (Korte–Möhring's
//!   problem, solved by D1/D2 closure plus backtracking);
//! * [`interval`] — coordinate realization of the resulting interval
//!   orders by longest weighted chains;
//! * [`implication`] — Gallai path-implication classes of a comparability
//!   graph (the paper's §4.3 partition), the oracle the forcing engine is
//!   tested against.
//!
//! # Example: orienting a comparability graph into coordinates
//!
//! ```
//! use recopack_graph::DenseGraph;
//! use recopack_order::{interval, orientation};
//!
//! // Three unit intervals where 0 overlaps 1 and 1 overlaps 2, but 0 and 2
//! // are disjoint: the comparability graph is the single edge {0, 2}, and
//! // the precedence arc 2 → 0 seeds its orientation.
//! let comp = DenseGraph::from_edges(3, [(0, 2)]);
//! let order = orientation::transitively_orient_extending(&comp, [(2, 0)])?;
//! let layout = interval::realize_from_order(&order, &[1, 1, 1]);
//! assert_eq!(layout.starts, [1, 0, 0]);
//! assert_eq!(layout.extent, 2);
//! # Ok::<(), recopack_order::orientation::OrientError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dag;
pub mod implication;
pub mod interval;
pub mod orientation;

pub use dag::{CycleError, Dag};
