//! Event-driven, precedence-aware list scheduling.

use recopack_model::{Instance, Placement};

use crate::freespace::FreeSpace;

/// Deterministic priority rules for [`list_schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Longest duration-weighted tail in the precedence DAG first
    /// (critical-path scheduling).
    CriticalPath,
    /// Largest spatial footprint first.
    Area,
    /// Longest duration first.
    Duration,
    /// Largest space-time volume first.
    Volume,
}

impl Priority {
    /// The task order this rule induces on `instance` (highest priority
    /// first; ties broken by task id for determinism).
    pub fn order(self, instance: &Instance) -> Vec<usize> {
        let n = instance.task_count();
        let key: Vec<u64> = match self {
            Priority::CriticalPath => instance.timing().tails().to_vec(),
            Priority::Area => instance.tasks().iter().map(|t| t.area()).collect(),
            Priority::Duration => instance.tasks().iter().map(|t| t.duration()).collect(),
            Priority::Volume => instance.tasks().iter().map(|t| t.volume()).collect(),
        };
        let mut ids: Vec<usize> = (0..n).collect();
        ids.sort_by_key(|&i| (std::cmp::Reverse(key[i]), i));
        ids
    }
}

/// Runs the event-driven list scheduler with the given task priority order
/// (earlier in `order` = tried first).
///
/// At each event time (0 and every task completion), finished tasks release
/// their rectangles, newly ready tasks (all predecessors finished) are placed
/// bottom-left if space permits, and time advances to the next completion.
/// Succeeds iff everything is placed within the horizon; the result is
/// verified before being returned, so a `Some` is always a true packing.
///
/// A thin call into the scheduler's reusable workspace, which
/// [`find_feasible`](crate::find_feasible) keeps for every order it tries
/// on one instance.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..task_count`.
pub fn list_schedule(instance: &Instance, order: &[usize]) -> Option<Placement> {
    Workspace::new(instance).schedule(order)
}

/// The list scheduler's buffers for one instance, sized once, so that
/// scheduling another order allocates nothing until a packing is built.
pub(crate) struct Workspace<'a> {
    instance: &'a Instance,
    /// Whether every task fits the chip and the horizon on its own; if
    /// not, no order can place everything.
    fits: bool,
    /// Predecessor count of each task.
    preds: Vec<usize>,
    /// Position of each task in the order being scheduled.
    rank: Vec<usize>,
    /// Predecessors of each task that have not finished yet.
    unfinished_preds: Vec<usize>,
    /// Origin of each placed task.
    placed: Vec<Option<[u64; 3]>>,
    /// Finish time of each placed task.
    finish: Vec<u64>,
    /// Placed tasks that have not been released yet.
    running: Vec<usize>,
    /// Tasks ready at the current event, in priority order.
    ready: Vec<usize>,
    space: FreeSpace,
}

impl<'a> Workspace<'a> {
    /// Sizes every buffer for `instance`.
    pub(crate) fn new(instance: &'a Instance) -> Self {
        let n = instance.task_count();
        let chip = instance.chip();
        let fits = instance.tasks().iter().all(|t| {
            t.width() <= chip.width()
                && t.height() <= chip.height()
                && t.duration() <= instance.horizon()
        });
        Self {
            instance,
            fits,
            preds: (0..n)
                .map(|v| instance.precedence().predecessors(v).len())
                .collect(),
            rank: vec![0; n],
            unfinished_preds: vec![0; n],
            placed: vec![None; n],
            finish: vec![0; n],
            running: Vec::with_capacity(n),
            ready: Vec::with_capacity(n),
            space: FreeSpace::with_capacity(chip.width(), chip.height(), n),
        }
    }

    /// [`list_schedule`] with these buffers.
    ///
    /// The next event is always the least finish time among the running
    /// tasks: every completion still ahead belongs to a running task, and
    /// every running task completes ahead. So no event set is kept.
    pub(crate) fn schedule(&mut self, order: &[usize]) -> Option<Placement> {
        let Self {
            instance,
            fits,
            preds,
            rank,
            unfinished_preds,
            placed,
            finish,
            running,
            ready,
            space,
        } = self;
        let instance = *instance;
        let n = instance.task_count();
        assert_eq!(order.len(), n, "order must cover every task");
        if !*fits {
            return None;
        }
        let horizon = instance.horizon();
        for (r, &t) in order.iter().enumerate() {
            rank[t] = r;
        }
        unfinished_preds.copy_from_slice(preds);
        placed.fill(None);
        running.clear();
        space.clear();
        let mut remaining = n;
        let mut now = 0;
        while remaining > 0 && now < horizon {
            // Release everything finishing at or before `now`.
            running.retain(|&t| {
                if finish[t] > now {
                    return true;
                }
                let [x, y, _] = placed[t].expect("running tasks are placed");
                let task = instance.task(t);
                space.release(x, y, task.width(), task.height());
                for v in instance.precedence().successors(t).iter() {
                    unfinished_preds[v] -= 1;
                }
                false
            });
            // Ready tasks in priority order.
            ready.clear();
            ready.extend((0..n).filter(|&t| placed[t].is_none() && unfinished_preds[t] == 0));
            ready.sort_unstable_by_key(|&t| rank[t]);
            for &t in ready.iter() {
                let task = instance.task(t);
                let Some(end) = now.checked_add(task.duration()).filter(|&e| e <= horizon) else {
                    continue;
                };
                if let Some((x, y)) = space.find_position(task.width(), task.height()) {
                    space.occupy(x, y, task.width(), task.height());
                    placed[t] = Some([x, y, now]);
                    finish[t] = end;
                    running.push(t);
                    remaining -= 1;
                }
            }
            match running.iter().map(|&t| finish[t]).min() {
                Some(next) => now = next,
                None => break,
            }
        }
        if remaining > 0 {
            return None;
        }
        let origins: Vec<[u64; 3]> = placed
            .iter()
            .map(|p| p.expect("all tasks placed"))
            .collect();
        let placement = Placement::new(origins, instance);
        // The scheduler's invariants should make this infallible; verify anyway
        // so a bug here can never masquerade as a feasible packing.
        placement.verify(instance).is_ok().then_some(placement)
    }
}

/// The list scheduler as it was before [`Workspace`]: fresh buffers for
/// every order, a `BTreeSet` of event times and a sorted ready list at
/// every event. Kept as the reference the workspace is tested against.
#[cfg(test)]
pub(crate) fn reference_list_schedule(instance: &Instance, order: &[usize]) -> Option<Placement> {
    use std::collections::BTreeSet;

    let n = instance.task_count();
    assert_eq!(order.len(), n, "order must cover every task");
    if n == 0 {
        let p = Placement::new(vec![], instance);
        return Some(p);
    }
    let chip = instance.chip();
    let horizon = instance.horizon();
    // Tasks that don't fit the chip can never be placed.
    for t in instance.tasks() {
        if t.width() > chip.width() || t.height() > chip.height() || t.duration() > horizon {
            return None;
        }
    }
    let mut rank = vec![0usize; n];
    for (r, &t) in order.iter().enumerate() {
        rank[t] = r;
    }

    let mut space = FreeSpace::new(chip.width(), chip.height());
    let mut placed: Vec<Option<[u64; 3]>> = vec![None; n];
    let mut finish: Vec<u64> = vec![0; n];
    let mut unfinished_preds: Vec<usize> = (0..n)
        .map(|v| instance.precedence().predecessors(v).len())
        .collect();
    let mut running: Vec<usize> = Vec::new();
    let mut events: BTreeSet<u64> = BTreeSet::new();
    events.insert(0);
    let mut remaining = n;

    while let Some(now) = events.pop_first() {
        if now >= horizon {
            break;
        }
        // Release everything finishing at or before `now`.
        running.retain(|&t| {
            if finish[t] <= now {
                let [x, y, _] = placed[t].expect("running tasks are placed");
                space.release(x, y, instance.task(t).width(), instance.task(t).height());
                for v in instance.precedence().successors(t).iter() {
                    unfinished_preds[v] -= 1;
                }
                false
            } else {
                true
            }
        });
        // Ready tasks in priority order.
        let mut ready: Vec<usize> = (0..n)
            .filter(|&t| placed[t].is_none() && unfinished_preds[t] == 0)
            .collect();
        ready.sort_by_key(|&t| rank[t]);
        for t in ready {
            let task = instance.task(t);
            let Some(end) = now.checked_add(task.duration()).filter(|&e| e <= horizon) else {
                continue;
            };
            if let Some((x, y)) = space.find_position(task.width(), task.height()) {
                space.occupy(x, y, task.width(), task.height());
                placed[t] = Some([x, y, now]);
                finish[t] = end;
                events.insert(end);
                running.push(t);
                remaining -= 1;
            }
        }
        if remaining == 0 {
            break;
        }
    }

    if remaining > 0 {
        return None;
    }
    let origins: Vec<[u64; 3]> = placed
        .into_iter()
        .map(|p| p.expect("all tasks placed"))
        .collect();
    let placement = Placement::new(origins, instance);
    placement.verify(instance).is_ok().then_some(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::{Chip, Task};

    fn chain_instance(horizon: u64) -> Instance {
        Instance::builder()
            .chip(Chip::square(2))
            .horizon(horizon)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 2))
            .precedence("a", "b")
            .build()
            .expect("valid")
    }

    #[test]
    fn serial_chain_is_scheduled_exactly() {
        let i = chain_instance(4);
        let p = list_schedule(&i, &[0, 1]).expect("fits exactly");
        assert_eq!(p.verify(&i), Ok(()));
        assert_eq!(p.makespan(), 4);
    }

    #[test]
    fn chain_fails_below_critical_path() {
        let i = chain_instance(3);
        assert_eq!(list_schedule(&i, &[0, 1]), None);
    }

    #[test]
    fn parallel_tasks_share_the_chip() {
        let i = Instance::builder()
            .chip(Chip::new(4, 2))
            .horizon(2)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 2))
            .build()
            .expect("valid");
        let p = list_schedule(&i, &[0, 1]).expect("side by side");
        assert_eq!(p.makespan(), 2);
    }

    #[test]
    fn oversized_task_fails_immediately() {
        let i = Instance::builder()
            .chip(Chip::square(2))
            .horizon(2)
            .task(Task::new("big", 3, 1, 1))
            .build()
            .expect("valid");
        assert_eq!(list_schedule(&i, &[0]), None);
    }

    #[test]
    fn empty_instance_schedules_trivially() {
        let i = Instance::builder()
            .chip(Chip::square(2))
            .horizon(1)
            .build()
            .expect("valid");
        assert!(list_schedule(&i, &[]).is_some());
    }

    #[test]
    fn priority_orders_are_permutations() {
        let i = chain_instance(4);
        for rule in [
            Priority::CriticalPath,
            Priority::Area,
            Priority::Duration,
            Priority::Volume,
        ] {
            let mut order = rule.order(&i);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1]);
        }
    }

    #[test]
    fn critical_path_priority_prefers_long_tails() {
        let i = Instance::builder()
            .chip(Chip::square(4))
            .horizon(10)
            .task(Task::new("short", 1, 1, 1))
            .task(Task::new("head", 1, 1, 2))
            .task(Task::new("tail", 1, 1, 5))
            .precedence("head", "tail")
            .build()
            .expect("valid");
        let order = Priority::CriticalPath.order(&i);
        assert_eq!(order[0], 1, "head of the long chain goes first");
    }
}
