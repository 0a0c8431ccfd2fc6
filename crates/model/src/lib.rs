//! Problem model for FPGA module placement in space-time.
//!
//! Following the architecture assumptions of Fekete–Köhler–Teich (DATE 2001,
//! §2): a partially reconfigurable FPGA is a `W × H` array of identical
//! cells; a hardware module (task) occupies a `w_x × w_y` sub-rectangle for
//! `w_t` clock cycles and may be placed anywhere on the chip; intermodule
//! communication happens through off-chip memory at task boundaries, so no
//! routing constraints arise; data dependencies impose a partial order on
//! task *time intervals*. A feasible solution is a placement of
//! three-dimensional boxes in the container `W × H × T` such that no two
//! boxes overlap and every precedence arc `u → v` satisfies
//! `end(u) ≤ start(v)`.
//!
//! Contents:
//!
//! * [`Task`], [`Chip`], [`Instance`] (+ builder) — problem statements;
//! * [`Dim`] — the three packing dimensions `x`, `y`, `t`;
//! * [`Timing`] — heads, tails and the critical path of the precedence DAG;
//! * [`Placement`], [`Schedule`] — solutions and partial solutions, with a
//!   strict geometric [verifier](Placement::verify);
//! * [`benchmarks`] — the paper's DE (differential equation) and H.261
//!   video-codec instances;
//! * [`generate`] — random instance generators for tests and benchmarks;
//! * [`format`](mod@format) — a plain-text instance file format (parse / write);
//! * [`render`] — Gantt timelines and chip floorplans for placements.
//!
//! # Example
//!
//! ```
//! use recopack_model::{Chip, Instance, Task};
//!
//! let instance = Instance::builder()
//!     .chip(Chip::new(16, 16))
//!     .horizon(4)
//!     .task(Task::new("mul", 16, 16, 2))
//!     .task(Task::new("alu", 16, 1, 1))
//!     .precedence("mul", "alu")
//!     .build()?;
//! assert_eq!(instance.task_count(), 2);
//! assert_eq!(instance.critical_path_length(), 3);
//! # Ok::<(), recopack_model::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
mod chip;
mod dim;
pub mod format;
pub mod generate;
mod instance;
mod placement;
pub mod render;
mod task;
mod timing;

pub use chip::Chip;
pub use dim::{Dim, DimIndexError};
pub use instance::{BuildError, Instance, InstanceBuilder};
pub use placement::{Box3, Placement, Schedule, VerifyError};
pub use task::Task;
pub use timing::Timing;
