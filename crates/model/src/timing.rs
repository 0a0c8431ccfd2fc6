//! Longest paths through the precedence DAG: heads, tails and the critical
//! length, from one topological pass.

use crate::Instance;

/// Duration-weighted longest paths through an instance's precedence DAG.
///
/// * The *head* of a task is its ASAP start: the heaviest chain of
///   predecessors that must finish before it starts.
/// * The *tail* of a task is the heaviest chain that starts with it, the
///   task itself included, so `horizon − tail` is its ALAP start.
/// * The *length* is the critical path: the largest `head + tail` over all
///   tasks, a floor on any makespan whatever the chip.
///
/// Every sum saturates at `u64::MAX`, so each value is the exact one capped
/// at `u64::MAX`: it never wraps to something small, and a bound that
/// compares it against a horizon stays sound.
///
/// # Example
///
/// ```
/// use recopack_model::{Chip, Instance, Task};
///
/// let instance = Instance::builder()
///     .chip(Chip::square(4))
///     .horizon(9)
///     .task(Task::new("a", 1, 1, 2))
///     .task(Task::new("b", 1, 1, 3))
///     .task(Task::new("c", 1, 1, 1))
///     .precedence("a", "b")
///     .build()?;
/// let timing = instance.timing();
/// assert_eq!(timing.heads(), &[0, 2, 0]);
/// assert_eq!(timing.tails(), &[5, 3, 1]);
/// assert_eq!(timing.length(), 5);
/// # Ok::<(), recopack_model::BuildError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timing {
    heads: Vec<u64>,
    tails: Vec<u64>,
    length: u64,
}

impl Timing {
    pub(crate) fn new(instance: &Instance) -> Self {
        let dag = instance.precedence();
        let order = dag
            .topological_order()
            .expect("instances are validated acyclic at build time");
        let n = instance.task_count();
        let duration = |v: usize| instance.task(v).duration();
        let mut heads = vec![0u64; n];
        for &u in &order {
            let finish = heads[u].saturating_add(duration(u));
            for v in dag.successors(u).iter() {
                heads[v] = heads[v].max(finish);
            }
        }
        let mut tails = vec![0u64; n];
        for &u in order.iter().rev() {
            let after = dag.successors(u).iter().map(|v| tails[v]).max();
            tails[u] = duration(u).saturating_add(after.unwrap_or(0));
        }
        let length = heads
            .iter()
            .zip(&tails)
            .map(|(&h, &t)| h.saturating_add(t))
            .max()
            .unwrap_or(0);
        Self {
            heads,
            tails,
            length,
        }
    }

    /// ASAP start of every task, indexed by task id.
    pub fn heads(&self) -> &[u64] {
        &self.heads
    }

    /// Heaviest chain starting at every task, the task included, indexed by
    /// task id.
    pub fn tails(&self) -> &[u64] {
        &self.tails
    }

    /// The critical path length: the largest `head + tail`.
    pub fn length(&self) -> u64 {
        self.length
    }
}

#[cfg(test)]
mod tests {
    use crate::{Chip, Instance, Task};

    fn instance(durations: &[u64], arcs: &[(usize, usize)]) -> Instance {
        let name = |i: usize| format!("t{i}");
        let mut builder = Instance::builder().chip(Chip::square(4)).horizon(1);
        for (i, &d) in durations.iter().enumerate() {
            builder = builder.task(Task::new(name(i), 1, 1, d));
        }
        for &(u, v) in arcs {
            builder = builder.precedence(name(u), name(v));
        }
        builder.build().expect("valid")
    }

    #[test]
    fn diamond_heads_and_tails() {
        let timing = instance(&[2, 5, 1, 2], &[(0, 1), (0, 2), (1, 3), (2, 3)]).timing();
        assert_eq!(timing.heads(), &[0, 2, 2, 7]);
        assert_eq!(timing.tails(), &[9, 7, 3, 2]);
        assert_eq!(timing.length(), 9);
    }

    #[test]
    fn isolated_heavy_task_sets_the_length() {
        let timing = instance(&[1, 1, 10], &[(0, 1)]).timing();
        assert_eq!(timing.length(), 10);
        assert_eq!(timing.heads()[2] + timing.tails()[2], 10);
    }

    #[test]
    fn empty_instance_has_length_zero() {
        let timing = instance(&[], &[]).timing();
        assert!(timing.heads().is_empty());
        assert_eq!(timing.length(), 0);
    }

    #[test]
    fn sums_past_u64_saturate() {
        let big = 1 << 63;
        let timing = instance(&[big, big, 1], &[(0, 1), (1, 2)]).timing();
        assert_eq!(timing.heads(), &[0, big, u64::MAX]);
        assert_eq!(timing.tails(), &[u64::MAX, big + 1, 1]);
        assert_eq!(timing.length(), u64::MAX);
    }
}
