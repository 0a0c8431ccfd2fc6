//! Solutions: schedules, placements, and the geometric verifier.

use crate::{Dim, Instance};

/// An axis-aligned box in space-time: the realized position of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Box3 {
    /// Lower corner `[x, y, t]`.
    pub origin: [u64; 3],
    /// Extents `[w_x, w_y, w_t]`.
    pub size: [u64; 3],
}

impl Box3 {
    /// Exclusive upper corner along `dim`. The sum is unchecked, so it
    /// overflows past `u64::MAX`; [`Placement::verify`] rejects such boxes
    /// before reading it.
    pub fn end(&self, dim: Dim) -> u64 {
        self.origin[dim.index()] + self.size[dim.index()]
    }

    /// Inclusive lower corner along `dim`.
    pub fn start(&self, dim: Dim) -> u64 {
        self.origin[dim.index()]
    }

    /// Whether the open projections of `self` and `other` overlap along `dim`.
    fn overlaps_in(&self, other: &Box3, dim: Dim) -> bool {
        self.start(dim) < other.end(dim) && other.start(dim) < self.end(dim)
    }

    /// Whether the boxes overlap in all three dimensions (i.e. collide).
    pub fn collides(&self, other: &Box3) -> bool {
        Dim::ALL.iter().all(|&d| self.overlaps_in(other, d))
    }
}

/// Errors found by [`Placement::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The placement has a different number of boxes than the instance has
    /// tasks.
    WrongTaskCount {
        /// Boxes in the placement.
        got: usize,
        /// Tasks in the instance.
        expected: usize,
    },
    /// A box's size differs from its task's size.
    WrongShape {
        /// Task id.
        task: usize,
    },
    /// A task leaves the chip or exceeds the horizon.
    OutOfBounds {
        /// Task id.
        task: usize,
        /// Dimension in which the bound is violated.
        dim: Dim,
    },
    /// Two tasks overlap in all three dimensions.
    Collision {
        /// First task id.
        a: usize,
        /// Second task id.
        b: usize,
    },
    /// A precedence arc `u → v` is violated (`u` does not finish before `v`
    /// starts).
    PrecedenceViolated {
        /// Predecessor task id.
        before: usize,
        /// Successor task id.
        after: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WrongTaskCount { got, expected } => {
                write!(f, "placement has {got} boxes for {expected} tasks")
            }
            Self::WrongShape { task } => write!(f, "box of task {task} has the wrong shape"),
            Self::OutOfBounds { task, dim } => {
                write!(f, "task {task} exceeds the container in dimension {dim}")
            }
            Self::Collision { a, b } => write!(f, "tasks {a} and {b} overlap in space-time"),
            Self::PrecedenceViolated { before, after } => {
                write!(f, "task {before} must finish before task {after} starts")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// A complete solution: one space-time box per task.
///
/// `Placement` is the *certificate* returned by the solvers; [`verify`]
/// checks it against the instance from first principles (bounds, pairwise
/// collisions, precedence), independent of any solver internals.
///
/// [`verify`]: Placement::verify
///
/// # Example
///
/// ```
/// use recopack_model::{Chip, Instance, Placement, Task};
///
/// let instance = Instance::builder()
///     .chip(Chip::square(2))
///     .horizon(4)
///     .task(Task::new("a", 2, 2, 2))
///     .task(Task::new("b", 2, 2, 2))
///     .precedence("a", "b")
///     .build()?;
/// let placement = Placement::new(vec![[0, 0, 0], [0, 0, 2]], &instance);
/// assert!(placement.verify(&instance).is_ok());
/// # Ok::<(), recopack_model::BuildError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    boxes: Vec<Box3>,
}

impl Placement {
    /// Creates a placement from per-task origins `[x, y, t]`, taking sizes
    /// from the instance.
    ///
    /// # Panics
    ///
    /// Panics if `origins.len()` differs from the instance's task count.
    pub fn new(origins: Vec<[u64; 3]>, instance: &Instance) -> Self {
        assert_eq!(
            origins.len(),
            instance.task_count(),
            "one origin per task required"
        );
        let boxes = origins
            .into_iter()
            .zip(instance.tasks())
            .map(|(origin, t)| Box3 {
                origin,
                size: [t.width(), t.height(), t.duration()],
            })
            .collect();
        Self { boxes }
    }

    /// The boxes, indexed by task id.
    pub fn boxes(&self) -> &[Box3] {
        &self.boxes
    }

    /// The box of one task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn task_box(&self, task: usize) -> Box3 {
        self.boxes[task]
    }

    /// The start times only, as a [`Schedule`].
    pub fn schedule(&self) -> Schedule {
        Schedule {
            starts: self.boxes.iter().map(|b| b.origin[2]).collect(),
        }
    }

    /// The makespan: latest finishing time over all tasks.
    pub fn makespan(&self) -> u64 {
        self.boxes
            .iter()
            .map(|b| b.end(Dim::Time))
            .max()
            .unwrap_or(0)
    }

    /// Smallest square chip side the spatial footprint fits on.
    pub fn bounding_square(&self) -> u64 {
        self.boxes
            .iter()
            .map(|b| b.end(Dim::X).max(b.end(Dim::Y)))
            .max()
            .unwrap_or(0)
    }

    /// Verifies the placement against `instance` from first principles.
    ///
    /// # Errors
    ///
    /// The first violation found, as a [`VerifyError`]: shape mismatch,
    /// container bounds, pairwise space-time collision, or precedence.
    pub fn verify(&self, instance: &Instance) -> Result<(), VerifyError> {
        let n = instance.task_count();
        if self.boxes.len() != n {
            return Err(VerifyError::WrongTaskCount {
                got: self.boxes.len(),
                expected: n,
            });
        }
        let container = instance.container();
        for (i, b) in self.boxes.iter().enumerate() {
            let t = instance.task(i);
            if b.size != [t.width(), t.height(), t.duration()] {
                return Err(VerifyError::WrongShape { task: i });
            }
            for d in Dim::ALL {
                // An end past u64 is out of bounds too; `Box3::end` would wrap.
                let end = b.origin[d.index()].checked_add(b.size[d.index()]);
                if end.is_none_or(|end| end > container[d.index()]) {
                    return Err(VerifyError::OutOfBounds { task: i, dim: d });
                }
            }
        }
        for a in 0..n {
            for b in 0..a {
                if self.boxes[a].collides(&self.boxes[b]) {
                    return Err(VerifyError::Collision { a: b, b: a });
                }
            }
        }
        for (u, v) in instance.precedence().arcs() {
            if self.boxes[u].end(Dim::Time) > self.boxes[v].start(Dim::Time) {
                return Err(VerifyError::PrecedenceViolated {
                    before: u,
                    after: v,
                });
            }
        }
        Ok(())
    }
}

/// Start times only — the "schedule" half of a solution, used by the
/// FixedS problem family where starts are given and only the spatial
/// placement is sought.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    starts: Vec<u64>,
}

impl Schedule {
    /// Creates a schedule from per-task start times.
    pub fn new(starts: Vec<u64>) -> Self {
        Self { starts }
    }

    /// Start times indexed by task id.
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// Start time of one task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn start(&self, task: usize) -> u64 {
        self.starts[task]
    }

    /// Latest finishing time under `instance`'s durations.
    pub fn makespan(&self, instance: &Instance) -> u64 {
        self.starts
            .iter()
            .zip(instance.tasks())
            .map(|(s, t)| s + t.duration())
            .max()
            .unwrap_or(0)
    }

    /// Whether all precedence arcs and the horizon are honored (ignoring
    /// space).
    pub fn respects_precedence(&self, instance: &Instance) -> bool {
        instance
            .precedence()
            .arcs()
            .all(|(u, v)| self.starts[u] + instance.task(u).duration() <= self.starts[v])
            && self.makespan(instance) <= instance.horizon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chip, Task};

    fn instance() -> Instance {
        Instance::builder()
            .chip(Chip::square(4))
            .horizon(6)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 2))
            .task(Task::new("c", 4, 4, 2))
            .precedence("a", "c")
            .build()
            .expect("valid instance")
    }

    #[test]
    fn valid_placement_verifies() {
        let i = instance();
        let p = Placement::new(vec![[0, 0, 0], [2, 2, 0], [0, 0, 2]], &i);
        assert_eq!(p.verify(&i), Ok(()));
        assert_eq!(p.makespan(), 4);
        assert_eq!(p.bounding_square(), 4);
        assert_eq!(p.schedule().starts(), &[0, 0, 2]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let i = instance();
        let p = Placement::new(vec![[3, 0, 0], [0, 2, 0], [0, 0, 2]], &i);
        assert_eq!(
            p.verify(&i),
            Err(VerifyError::OutOfBounds {
                task: 0,
                dim: Dim::X
            })
        );
        let late = Placement::new(vec![[0, 0, 5], [2, 2, 0], [0, 0, 0]], &i);
        assert!(matches!(
            late.verify(&i),
            Err(VerifyError::OutOfBounds {
                task: 0,
                dim: Dim::Time
            }) | Err(VerifyError::PrecedenceViolated { .. })
        ));
    }

    #[test]
    fn collision_detected() {
        let i = instance();
        let p = Placement::new(vec![[0, 0, 0], [1, 1, 0], [0, 0, 2]], &i);
        assert_eq!(p.verify(&i), Err(VerifyError::Collision { a: 0, b: 1 }));
    }

    #[test]
    fn touching_boxes_do_not_collide() {
        let i = instance();
        // b starts exactly where a ends in x.
        let p = Placement::new(vec![[0, 0, 0], [2, 0, 0], [0, 0, 2]], &i);
        assert_eq!(p.verify(&i), Ok(()));
    }

    #[test]
    fn precedence_violation_detected() {
        let i = instance();
        // c (dependent on a) starts at 1 < end(a) = 2, but they don't collide
        // spatially? c is 4x4 = whole chip, so move a's start instead:
        let p = Placement::new(vec![[0, 0, 4], [2, 2, 4], [0, 0, 0]], &i);
        assert_eq!(
            p.verify(&i),
            Err(VerifyError::PrecedenceViolated {
                before: 0,
                after: 2
            })
        );
    }

    #[test]
    fn schedule_checks_precedence_and_horizon() {
        let i = instance();
        let good = Schedule::new(vec![0, 0, 2]);
        assert!(good.respects_precedence(&i));
        let bad = Schedule::new(vec![1, 0, 2]);
        assert!(!bad.respects_precedence(&i));
        let over = Schedule::new(vec![0, 0, 5]);
        assert!(!over.respects_precedence(&i));
        assert_eq!(good.makespan(&i), 4);
        assert_eq!(good.start(2), 2);
    }

    #[test]
    fn box_overlap_predicates() {
        let a = Box3 {
            origin: [0, 0, 0],
            size: [2, 2, 2],
        };
        let b = Box3 {
            origin: [1, 1, 1],
            size: [2, 2, 2],
        };
        let c = Box3 {
            origin: [2, 0, 0],
            size: [2, 2, 2],
        };
        assert!(a.collides(&b));
        assert!(!a.collides(&c));
        assert!(a.overlaps_in(&c, Dim::Y));
        assert!(!a.overlaps_in(&c, Dim::X));
    }
}
