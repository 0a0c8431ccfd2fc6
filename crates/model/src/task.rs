//! Hardware modules (tasks) as three-dimensional boxes.

use crate::Dim;

/// A hardware module: a `width × height` block of FPGA cells that occupies
/// its region for `duration` clock cycles.
///
/// Per the paper's task model (§2.1), I/O overhead is a constant offset
/// folded into the execution time, and reconfiguration overhead "may be
/// modeled by a constant (possibly a different number for each task)". A
/// task therefore carries an optional [`reconfiguration`](Self::reconfiguration)
/// prefix: the cells are held for `reconfiguration + compute_duration`
/// cycles total, which is what [`duration`](Self::duration) reports and what
/// the packing dimensions see. Tasks are not rotatable: a `16 × 1` ALU
/// cannot be placed as `1 × 16`.
///
/// # Example
///
/// ```
/// use recopack_model::{Dim, Task};
///
/// let mul = Task::new("mul", 16, 16, 2);
/// assert_eq!(mul.size(Dim::X), 16);
/// assert_eq!(mul.size(Dim::Time), 2);
/// assert_eq!(mul.volume(), 512);
///
/// let slow_load = mul.with_reconfiguration(3);
/// assert_eq!(slow_load.duration(), 5);
/// assert_eq!(slow_load.compute_duration(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Task {
    name: String,
    width: u64,
    height: u64,
    compute: u64,
    reconfiguration: u64,
}

impl Task {
    /// Creates a task with the given footprint and compute duration and no
    /// reconfiguration overhead.
    ///
    /// Zero extents are representable here and rejected at
    /// [`Instance`](crate::Instance) build time, so that builders can report
    /// all problems at once.
    pub fn new(name: impl Into<String>, width: u64, height: u64, duration: u64) -> Self {
        Self {
            name: name.into(),
            width,
            height,
            compute: duration,
            reconfiguration: 0,
        }
    }

    /// The same task with a per-task constant reconfiguration overhead,
    /// charged before computation while the cells are already claimed
    /// (paper §2.1, "reconfiguration overhead").
    pub fn with_reconfiguration(mut self, cycles: u64) -> Self {
        self.reconfiguration = cycles;
        self
    }

    /// The task's name (unique within an instance).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Spatial width in cells (extent along [`Dim::X`]).
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Spatial height in cells (extent along [`Dim::Y`]).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Total cycles the cells are occupied: reconfiguration plus compute
    /// (extent along [`Dim::Time`]).
    pub fn duration(&self) -> u64 {
        self.reconfiguration + self.compute
    }

    /// Compute cycles only, excluding reconfiguration.
    pub fn compute_duration(&self) -> u64 {
        self.compute
    }

    /// Reconfiguration overhead in cycles (0 unless set).
    pub fn reconfiguration(&self) -> u64 {
        self.reconfiguration
    }

    /// Extent along a dimension.
    pub fn size(&self, dim: Dim) -> u64 {
        match dim {
            Dim::X => self.width,
            Dim::Y => self.height,
            Dim::Time => self.duration(),
        }
    }

    /// Space-time volume `width × height × duration`, saturating at
    /// `u64::MAX`.
    pub fn volume(&self) -> u64 {
        self.area().saturating_mul(self.duration())
    }

    /// Spatial area `width × height`, saturating at `u64::MAX`.
    pub fn area(&self) -> u64 {
        self.width.saturating_mul(self.height)
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}x{}x{})",
            self.name,
            self.width,
            self.height,
            self.duration()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let t = Task::new("alu", 16, 1, 1);
        assert_eq!(t.name(), "alu");
        assert_eq!(t.width(), 16);
        assert_eq!(t.height(), 1);
        assert_eq!(t.duration(), 1);
        assert_eq!(t.area(), 16);
        assert_eq!(t.volume(), 16);
    }

    #[test]
    fn size_by_dim_matches_named_accessors() {
        let t = Task::new("m", 3, 5, 7);
        assert_eq!(t.size(Dim::X), t.width());
        assert_eq!(t.size(Dim::Y), t.height());
        assert_eq!(t.size(Dim::Time), t.duration());
    }

    #[test]
    fn reconfiguration_extends_occupancy() {
        let t = Task::new("m", 4, 4, 2).with_reconfiguration(3);
        assert_eq!(t.duration(), 5);
        assert_eq!(t.compute_duration(), 2);
        assert_eq!(t.reconfiguration(), 3);
        assert_eq!(t.size(Dim::Time), 5);
        assert_eq!(t.volume(), 80);
        assert_eq!(t.to_string(), "m (4x4x5)");
    }

    #[test]
    fn display_contains_shape() {
        assert_eq!(Task::new("mul", 16, 16, 2).to_string(), "mul (16x16x2)");
    }
}
