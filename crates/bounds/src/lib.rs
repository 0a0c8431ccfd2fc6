//! Lower bounds for 3D orthogonal packing with precedence constraints.
//!
//! Stage 1 of the paper's solver pipeline (§3.1): *"try to disprove the
//! existence of a packing by fast and good classes of lower bounds on the
//! necessary size."* The bounds here are the ones the paper builds on
//! (Fekete–Schepers, "New classes of lower bounds for bin packing problems",
//! IPCO'98) plus precedence-aware bounds enabled by the dependency DAG:
//!
//! * [`volume`] — elementary fit and volume arguments;
//! * [`dff`] — **dual feasible functions**: rescalings of box sizes that
//!   preserve feasibility, so a volume violation after rescaling refutes the
//!   original instance. Implemented exactly, in integer arithmetic;
//! * [`precedence`] — critical-path and time-window "energy" arguments.
//!
//! Every refutation is returned with a machine-checkable reason
//! ([`Refutation`]); "no refutation" never implies feasibility.
//!
//! # Example
//!
//! ```
//! use recopack_bounds::{refute, Refutation};
//! use recopack_model::{Chip, Instance, Task};
//!
//! // Two full-chip tasks cannot share 3 cycles: volume 2*16 > 16*1... use
//! // durations: 2 tasks x (4x4x2) = 64 cells-cycles > 4*4*3 = 48.
//! let instance = Instance::builder()
//!     .chip(Chip::square(4))
//!     .horizon(3)
//!     .task(Task::new("a", 4, 4, 2))
//!     .task(Task::new("b", 4, 4, 2))
//!     .build()?;
//! assert!(matches!(refute(&instance), Some(Refutation::Volume { .. })));
//! # Ok::<(), recopack_model::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dff;
pub mod precedence;
pub mod volume;

use dff::IntegerDff;
use recopack_model::{Dim, Instance};

/// The family of lower-bound argument behind a [`Refutation`] — the solver's
/// telemetry layer records *which* bound refuted an instance so the benchmark
/// reports can break refutations down per rule.
///
/// [`BoundKind::name`] is the stable identifier used in the JSON telemetry
/// schema; renaming a variant's string is a schema change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundKind {
    /// A single task exceeds the container ([`Refutation::TaskTooLarge`]).
    Fit,
    /// The plain volume argument ([`Refutation::Volume`]).
    Volume,
    /// A dual-feasible-function rescaling ([`Refutation::Dff`]).
    Dff,
    /// The duration-weighted critical path ([`Refutation::CriticalPath`]).
    CriticalPath,
    /// An empty ASAP/ALAP start window ([`Refutation::EmptyWindow`]).
    Window,
    /// The time-point energy argument ([`Refutation::Energy`]).
    Energy,
}

impl BoundKind {
    /// Every kind, in the order the bound battery tries them.
    pub const ALL: [BoundKind; 6] = [
        BoundKind::Fit,
        BoundKind::Volume,
        BoundKind::Dff,
        BoundKind::CriticalPath,
        BoundKind::Window,
        BoundKind::Energy,
    ];

    /// Stable snake_case name used in telemetry JSON.
    pub const fn name(self) -> &'static str {
        match self {
            BoundKind::Fit => "fit",
            BoundKind::Volume => "volume",
            BoundKind::Dff => "dff",
            BoundKind::CriticalPath => "critical_path",
            BoundKind::Window => "window",
            BoundKind::Energy => "energy",
        }
    }
}

impl std::fmt::Display for BoundKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A reason an instance provably has no feasible packing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refutation {
    /// A single task exceeds the container in some dimension.
    TaskTooLarge {
        /// Task id.
        task: usize,
        /// Violated dimension.
        dim: Dim,
    },
    /// Total task volume exceeds container volume.
    Volume {
        /// Total task volume.
        total: u64,
        /// Container volume.
        capacity: u64,
    },
    /// A dual-feasible-function rescaling pushes the volume over capacity.
    Dff {
        /// The DFFs applied to the task sizes, in [`Dim`] order.
        dffs: [IntegerDff; 3],
        /// Rescaled task volume: the sum over tasks of the three rescaled
        /// sizes' product, in units of the denominators' product.
        total: u128,
        /// Rescaled container volume: the product of the denominators.
        capacity: u128,
    },
    /// The duration-weighted critical path exceeds the horizon.
    CriticalPath {
        /// Critical path length, saturating at `u64::MAX`.
        length: u64,
        /// Horizon.
        horizon: u64,
    },
    /// Some task's ASAP start exceeds its ALAP start under the horizon.
    EmptyWindow {
        /// Task id.
        task: usize,
    },
    /// At some time point, tasks that must all be running need more cells
    /// than the chip has.
    Energy {
        /// The time point.
        time: u64,
        /// Total area of tasks forced to run at `time`.
        area: u64,
        /// Chip area.
        capacity: u64,
    },
}

impl Refutation {
    /// The lower-bound family that produced this refutation.
    pub const fn kind(&self) -> BoundKind {
        match self {
            Self::TaskTooLarge { .. } => BoundKind::Fit,
            Self::Volume { .. } => BoundKind::Volume,
            Self::Dff { .. } => BoundKind::Dff,
            Self::CriticalPath { .. } => BoundKind::CriticalPath,
            Self::EmptyWindow { .. } => BoundKind::Window,
            Self::Energy { .. } => BoundKind::Energy,
        }
    }
}

impl std::fmt::Display for Refutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TaskTooLarge { task, dim } => {
                write!(
                    f,
                    "task {task} does not fit the container in dimension {dim}"
                )
            }
            Self::Volume { total, capacity } => {
                write!(
                    f,
                    "total volume {total} exceeds container volume {capacity}"
                )
            }
            Self::Dff {
                dffs: [fx, fy, ft],
                total,
                capacity,
            } => write!(
                f,
                "DFF bound violated: ({}, {}, {}): rescaled volume {total} > {capacity}",
                fx.name(),
                fy.name(),
                ft.name()
            ),
            Self::CriticalPath { length, horizon } => {
                write!(f, "critical path {length} exceeds horizon {horizon}")
            }
            Self::EmptyWindow { task } => {
                write!(
                    f,
                    "task {task} has no feasible start window under the horizon"
                )
            }
            Self::Energy {
                time,
                area,
                capacity,
            } => write!(
                f,
                "at time {time}, forced tasks need {area} cells but the chip has {capacity}"
            ),
        }
    }
}

/// Tries all bounds in increasing cost order; returns the first refutation.
///
/// Order: single-task fit, critical path, empty windows, plain volume,
/// energy at forced time points, DFF sweep. The three precedence bounds
/// share one [`Timing`](recopack_model::Timing) pass.
pub fn refute(instance: &Instance) -> Option<Refutation> {
    volume::refute_fit(instance).or_else(|| {
        let timing = instance.timing();
        precedence::refute_critical_path(instance, &timing)
            .or_else(|| precedence::refute_windows(instance, &timing))
            .or_else(|| volume::refute_volume(instance))
            .or_else(|| precedence::refute_energy(instance, &timing))
            .or_else(|| dff::refute_dff(instance))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::{Chip, Task};

    #[test]
    fn feasible_instance_is_not_refuted() {
        let i = Instance::builder()
            .chip(Chip::square(4))
            .horizon(4)
            .task(Task::new("a", 4, 4, 2))
            .task(Task::new("b", 4, 4, 2))
            .build()
            .expect("valid");
        assert_eq!(refute(&i), None);
        let empty = Instance::builder()
            .chip(Chip::square(4))
            .horizon(4)
            .build()
            .expect("valid");
        assert_eq!(refute(&empty), None);
    }

    #[test]
    fn oversized_task_refuted_first() {
        let i = Instance::builder()
            .chip(Chip::square(4))
            .horizon(4)
            .task(Task::new("wide", 5, 1, 1))
            .build()
            .expect("valid");
        assert_eq!(
            refute(&i),
            Some(Refutation::TaskTooLarge {
                task: 0,
                dim: Dim::X
            })
        );
    }

    #[test]
    fn refutation_kinds_have_stable_names() {
        let r = Refutation::Volume {
            total: 2,
            capacity: 1,
        };
        assert_eq!(r.kind(), BoundKind::Volume);
        assert_eq!(r.kind().to_string(), "volume");
        let names: Vec<&str> = BoundKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            ["fit", "volume", "dff", "critical_path", "window", "energy"]
        );
    }

    #[test]
    fn capacities_past_u64_do_not_wrap() {
        // Chip area 2^64: wrapped, the capacity would read 0 and refute.
        let i = Instance::builder()
            .chip(Chip::square(1 << 32))
            .horizon(2)
            .task(Task::new("a", 1, 1, 1))
            .build()
            .expect("valid");
        assert_eq!(refute(&i), None);
        // Capacity 2^63 is exact, but three full-chip tasks sum past u64:
        // the saturated total must still refute.
        let full = |name| Task::new(name, 1 << 32, 1 << 31, 1);
        let i = Instance::builder()
            .chip(Chip::new(1 << 32, 1 << 31))
            .horizon(1)
            .task(full("a"))
            .task(full("b"))
            .task(full("c"))
            .build()
            .expect("valid");
        assert_eq!(
            volume::refute_volume(&i),
            Some(Refutation::Volume {
                total: u64::MAX,
                capacity: 1 << 63
            })
        );
    }

    #[test]
    fn critical_path_refutation() {
        let i = Instance::builder()
            .chip(Chip::square(8))
            .horizon(3)
            .task(Task::new("a", 1, 1, 2))
            .task(Task::new("b", 1, 1, 2))
            .precedence("a", "b")
            .build()
            .expect("valid");
        assert_eq!(
            refute(&i),
            Some(Refutation::CriticalPath {
                length: 4,
                horizon: 3
            })
        );
    }
}
