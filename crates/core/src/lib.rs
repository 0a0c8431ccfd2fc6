//! The exact packing-class solver for FPGA module placement with temporal
//! precedence constraints.
//!
//! This crate implements the algorithm of Fekete, Köhler & Teich (DATE
//! 2001). Instead of enumerating geometric positions, the search assigns a
//! three-valued *state* to every (task pair, dimension): **component**
//! (projections overlap), **comparability** (projections disjoint), or
//! undecided — plus an *orientation* for comparability edges of the time
//! dimension ("u entirely before v"). Constraint propagation closes each
//! decision under:
//!
//! * **C3** — no pair may overlap in all three dimensions;
//! * **C2** — every clique of fixed comparability edges (= chain of disjoint
//!   projections) must fit the container in that dimension, checked by exact
//!   maximum-weight clique;
//! * **C1 (partial)** — induced 4-cycles of component edges with fixed
//!   comparability chords are forbidden in interval graphs;
//! * **D1/D2** — the paper's path and transitivity implications, which
//!   cascade precedence orientations through the time dimension.
//!
//! Leaves are accepted *constructively*: each dimension's comparability
//! graph is transitively oriented (extending the precedence order in time),
//! coordinates are laid out by longest weighted chains, and the resulting
//! [`Placement`](recopack_model::Placement) is verified geometrically.
//! A "feasible" answer therefore always carries a checked certificate.
//!
//! Solvers:
//!
//! * [`Opp`] — feasibility for a fixed container (paper: FeasAT&FindS);
//! * [`Bmp`] — minimal square chip for a fixed deadline (MinA&FindS);
//! * [`Spp`] — minimal makespan for a fixed chip (MinT&FindS);
//! * [`FixedSchedule`] — spatial feasibility / minimal chip when start times
//!   are already given (FeasA&FixedS, MinA&FixedS);
//! * [`pareto_front`] — all Pareto-optimal (chip side, makespan) pairs
//!   (paper Fig. 7).
//!
//! # Example
//!
//! ```
//! use recopack_core::{Bmp, SolverConfig};
//! use recopack_model::{benchmarks, Chip};
//!
//! // Table 1, row T = 14: the smallest square chip is 16x16.
//! let instance = benchmarks::de(Chip::square(1), 14).with_transitive_closure();
//! let result = Bmp::new(&instance).solve().expect("feasible for some chip");
//! assert_eq!(result.side, 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
mod bmp;
mod bracket;
mod config;
mod fixeds;
mod opp;
mod pareto;
mod search;
mod spp;
mod state;
pub mod telemetry;

pub use beacon::{Profile, Sampler, DEFAULT_HZ as SAMPLER_DEFAULT_HZ};
pub use bmp::{Bmp, BmpResult};
pub use config::{LimitKind, SolveHandle, SolveProgress, SolverConfig, SolverStats};
pub use fixeds::FixedSchedule;
pub use opp::{InfeasibilityProof, Opp, SolveOutcome};
pub use pareto::{pareto_front, pareto_front_with_stats, ParetoPoint};
pub use spp::{Spp, SppResult};
pub use telemetry::{
    per_second, EventKind, FileJournal, MemoryJournal, PruneRule, SearchEvent, SolveReport,
    Telemetry, TelemetrySink, TELEMETRY_SCHEMA_VERSION,
};
