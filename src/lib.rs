//! # recopack — optimal FPGA module placement with temporal precedence constraints
//!
//! A faithful, production-quality reproduction of Fekete, Köhler & Teich,
//! *"Optimal FPGA Module Placement with Temporal Precedence Constraints"*
//! (DATE 2001): hardware modules on a partially reconfigurable FPGA are
//! three-dimensional boxes in space-time, and optimal placement becomes an
//! exact 3D orthogonal packing problem solved through the *packing class*
//! characterization, extended with Gallai-style implication machinery to
//! honor precedence (data-dependency) constraints.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`model`] — tasks, chips, instances, schedules, placements, verifier,
//!   and the paper's benchmark instances (DE, H.261 video codec);
//! * [`solver`] — the exact packing-class solvers: OPP (feasibility),
//!   BMP (minimal chip), SPP (minimal makespan), fixed-schedule variants,
//!   and Pareto-front enumeration;
//! * [`bounds`] — fast lower bounds (volume, dual feasible functions,
//!   precedence-aware bounds) used to refute infeasible instances early;
//! * [`heur`] — list-scheduling heuristics used to confirm feasible
//!   instances early;
//! * [`baseline`] — a naive geometric branch-and-bound placer, the
//!   comparison point the paper argues against;
//! * [`graph`] / [`order`] — the graph-theoretic substrates (bitsets,
//!   weighted cliques, DAGs, transitive orientation by Gallai forcing,
//!   coordinate realization of interval orders).
//!
//! # Quickstart
//!
//! ```
//! use recopack::model::{Instance, Chip, Task};
//! use recopack::solver::{Opp, SolveOutcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two 2x2 modules running 2 cycles each, second depends on the first.
//! let mut instance = Instance::builder()
//!     .chip(Chip::new(2, 2))
//!     .horizon(4)
//!     .task(Task::new("a", 2, 2, 2))
//!     .task(Task::new("b", 2, 2, 2))
//!     .precedence("a", "b")
//!     .build()?;
//! instance = instance.with_transitive_closure();
//!
//! let outcome = Opp::new(&instance).solve();
//! match outcome {
//!     SolveOutcome::Feasible(placement) => {
//!         assert!(placement.verify(&instance).is_ok());
//!     }
//!     SolveOutcome::Infeasible(_) => unreachable!("serial schedule fits"),
//!     SolveOutcome::ResourceLimit(limit) => unreachable!("tiny instance hit the {limit}"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use recopack_baseline as baseline;
pub use recopack_bounds as bounds;
pub use recopack_core as solver;
pub use recopack_graph as graph;
pub use recopack_heur as heur;
pub use recopack_model as model;
pub use recopack_order as order;
