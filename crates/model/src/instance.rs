//! Problem instances: tasks + precedence + container.

use std::collections::HashMap;

use recopack_order::Dag;

use crate::{Chip, Dim, Task, Timing};

/// Errors raised when building an [`Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two tasks share a name.
    DuplicateTaskName(String),
    /// A precedence arc refers to an unknown task name.
    UnknownTask(String),
    /// The precedence relation has a directed cycle (task names on it).
    CyclicPrecedence(Vec<String>),
    /// A task has a zero extent in some dimension.
    ZeroExtent(String),
    /// No chip was specified.
    MissingChip,
    /// No time horizon was specified.
    MissingHorizon,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateTaskName(n) => write!(f, "duplicate task name {n:?}"),
            Self::UnknownTask(n) => write!(f, "precedence arc names unknown task {n:?}"),
            Self::CyclicPrecedence(c) => write!(f, "cyclic precedence through {c:?}"),
            Self::ZeroExtent(n) => write!(f, "task {n:?} has a zero extent"),
            Self::MissingChip => write!(f, "no chip specified"),
            Self::MissingHorizon => write!(f, "no time horizon specified"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A complete problem statement: tasks, precedence constraints, chip, and
/// time horizon.
///
/// An instance fixes the container `W × H × T`; the solvers vary parts of it
/// (BMP searches chips, SPP searches horizons) by deriving modified copies
/// through [`Instance::with_chip`] / [`Instance::with_horizon`].
///
/// # Example
///
/// ```
/// use recopack_model::{Chip, Instance, Task};
///
/// let instance = Instance::builder()
///     .chip(Chip::square(8))
///     .horizon(10)
///     .task(Task::new("a", 4, 4, 3))
///     .task(Task::new("b", 8, 8, 2))
///     .precedence("a", "b")
///     .build()?;
/// assert_eq!(instance.container(), [8, 8, 10]);
/// assert!(instance.precedence().has_arc(0, 1));
/// # Ok::<(), recopack_model::BuildError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    tasks: Vec<Task>,
    precedence: Dag,
    chip: Chip,
    horizon: u64,
}

impl Instance {
    /// Starts building an instance.
    pub fn builder() -> InstanceBuilder {
        InstanceBuilder::new()
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// All tasks, indexed by task id.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: usize) -> &Task {
        &self.tasks[id]
    }

    /// The id of the task with the given name, if any.
    pub fn task_id(&self, name: &str) -> Option<usize> {
        self.tasks.iter().position(|t| t.name() == name)
    }

    /// The precedence DAG over task ids.
    pub fn precedence(&self) -> &Dag {
        &self.precedence
    }

    /// The chip.
    pub fn chip(&self) -> Chip {
        self.chip
    }

    /// The allowed overall execution time `T`.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Container extents `[W, H, T]` in dimension-index order.
    pub fn container(&self) -> [u64; 3] {
        [self.chip.width(), self.chip.height(), self.horizon]
    }

    /// Task extents along one dimension, indexed by task id.
    pub fn sizes(&self, dim: Dim) -> Vec<u64> {
        self.tasks.iter().map(|t| t.size(dim)).collect()
    }

    /// Total space-time volume of all tasks, saturating at `u64::MAX`: a
    /// saturated total understates the true one, so a volume bound that
    /// compares it against an exact capacity stays sound.
    pub fn total_volume(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| {
                t.width()
                    .saturating_mul(t.height())
                    .saturating_mul(t.duration())
            })
            .fold(0, u64::saturating_add)
    }

    /// Same instance with the precedence relation replaced by its transitive
    /// closure — the preprocessing step of paper §5.1 ("first, we compute
    /// the transitive closure of all data dependencies"), which lets the
    /// search detect contradictions earlier.
    pub fn with_transitive_closure(mut self) -> Self {
        self.precedence = self
            .precedence
            .transitive_closure()
            .expect("instances are validated acyclic at build time");
        self
    }

    /// Same instance on a different chip.
    pub fn with_chip(mut self, chip: Chip) -> Self {
        self.chip = chip;
        self
    }

    /// Same instance with a different time horizon.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Same instance with all precedence constraints dropped — the paper's
    /// "(b) without consideration of partial order constraints" variant in
    /// Figure 7.
    pub fn without_precedence(mut self) -> Self {
        self.precedence = Dag::new(self.tasks.len());
        self
    }

    /// Heads, tails and the critical length of the precedence DAG, from one
    /// topological pass (see [`Timing`]). It is computed on each call, so a
    /// caller that needs several of its values should keep the result.
    pub fn timing(&self) -> Timing {
        Timing::new(self)
    }

    /// Duration-weighted critical path through the precedence DAG, saturating
    /// at `u64::MAX`: no schedule can finish earlier, whatever the chip.
    pub fn critical_path_length(&self) -> u64 {
        self.timing().length()
    }
}

/// Builder for [`Instance`].
///
/// Collects tasks and name-based precedence arcs; [`build`](Self::build)
/// validates everything at once.
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    tasks: Vec<Task>,
    arcs: Vec<(String, String)>,
    chip: Option<Chip>,
    horizon: Option<u64>,
}

impl InstanceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the chip.
    pub fn chip(mut self, chip: Chip) -> Self {
        self.chip = Some(chip);
        self
    }

    /// Sets the time horizon `T`.
    pub fn horizon(mut self, horizon: u64) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Adds a task; ids are assigned in insertion order.
    pub fn task(mut self, task: Task) -> Self {
        self.tasks.push(task);
        self
    }

    /// Adds all tasks from an iterator.
    pub fn tasks(mut self, tasks: impl IntoIterator<Item = Task>) -> Self {
        self.tasks.extend(tasks);
        self
    }

    /// Adds the precedence constraint "`before` finishes before `after`
    /// starts", by task name.
    pub fn precedence(mut self, before: impl Into<String>, after: impl Into<String>) -> Self {
        self.arcs.push((before.into(), after.into()));
        self
    }

    /// Validates and builds the instance.
    ///
    /// # Errors
    ///
    /// See [`BuildError`]: duplicate/unknown task names, zero extents,
    /// cyclic precedence, missing chip or horizon.
    pub fn build(self) -> Result<Instance, BuildError> {
        let chip = self.chip.ok_or(BuildError::MissingChip)?;
        let horizon = self.horizon.ok_or(BuildError::MissingHorizon)?;
        let mut ids: HashMap<&str, usize> = HashMap::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if t.width() == 0 || t.height() == 0 || t.duration() == 0 {
                return Err(BuildError::ZeroExtent(t.name().to_string()));
            }
            if ids.insert(t.name(), i).is_some() {
                return Err(BuildError::DuplicateTaskName(t.name().to_string()));
            }
        }
        let mut precedence = Dag::new(self.tasks.len());
        for (u, v) in &self.arcs {
            let &ui = ids
                .get(u.as_str())
                .ok_or_else(|| BuildError::UnknownTask(u.clone()))?;
            let &vi = ids
                .get(v.as_str())
                .ok_or_else(|| BuildError::UnknownTask(v.clone()))?;
            precedence.add_arc(ui, vi);
        }
        if let Err(cycle) = precedence.topological_order() {
            return Err(BuildError::CyclicPrecedence(
                cycle
                    .cycle
                    .iter()
                    .map(|&v| self.tasks[v].name().to_string())
                    .collect(),
            ));
        }
        Ok(Instance {
            tasks: self.tasks,
            precedence,
            chip,
            horizon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tasks() -> InstanceBuilder {
        Instance::builder()
            .chip(Chip::square(4))
            .horizon(8)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 3))
    }

    #[test]
    fn builds_and_exposes_fields() {
        let i = two_tasks().precedence("a", "b").build().expect("valid");
        assert_eq!(i.task_count(), 2);
        assert_eq!(i.container(), [4, 4, 8]);
        assert_eq!(i.sizes(Dim::Time), vec![2, 3]);
        assert_eq!(i.task_id("b"), Some(1));
        assert_eq!(i.task_id("zz"), None);
        assert_eq!(i.critical_path_length(), 5);
        assert_eq!(i.total_volume(), 2 * 2 * 2 + 2 * 2 * 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = two_tasks()
            .task(Task::new("a", 1, 1, 1))
            .build()
            .expect_err("duplicate");
        assert_eq!(err, BuildError::DuplicateTaskName("a".into()));
    }

    #[test]
    fn unknown_task_in_arc_rejected() {
        let err = two_tasks()
            .precedence("a", "c")
            .build()
            .expect_err("unknown");
        assert_eq!(err, BuildError::UnknownTask("c".into()));
    }

    #[test]
    fn cycle_rejected_with_names() {
        let err = two_tasks()
            .precedence("a", "b")
            .precedence("b", "a")
            .build()
            .expect_err("cycle");
        match err {
            BuildError::CyclicPrecedence(names) => {
                assert!(names.contains(&"a".to_string()));
                assert!(names.contains(&"b".to_string()));
            }
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn zero_extent_rejected() {
        let err = Instance::builder()
            .chip(Chip::square(4))
            .horizon(4)
            .task(Task::new("z", 0, 2, 2))
            .build()
            .expect_err("zero extent");
        assert_eq!(err, BuildError::ZeroExtent("z".into()));
    }

    #[test]
    fn missing_parts_rejected() {
        assert_eq!(
            Instance::builder().horizon(4).build().expect_err("no chip"),
            BuildError::MissingChip
        );
        assert_eq!(
            Instance::builder()
                .chip(Chip::square(4))
                .build()
                .expect_err("no horizon"),
            BuildError::MissingHorizon
        );
    }

    #[test]
    fn closure_and_strip_variants() {
        let i = two_tasks()
            .task(Task::new("c", 1, 1, 1))
            .precedence("a", "b")
            .precedence("b", "c")
            .build()
            .expect("valid");
        let closed = i.clone().with_transitive_closure();
        assert!(closed.precedence().has_arc(0, 2));
        let free = i.clone().without_precedence();
        assert_eq!(free.precedence().arc_count(), 0);
        assert_eq!(i.clone().with_horizon(3).horizon(), 3);
        assert_eq!(i.with_chip(Chip::new(9, 9)).chip(), Chip::square(9));
    }
}
