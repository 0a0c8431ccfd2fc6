//! Precedence-aware lower bounds.
//!
//! The dependency DAG gives bounds no pure packing argument sees:
//!
//! * the duration-weighted **critical path** is a floor on any makespan;
//! * ASAP/ALAP **start windows** under the horizon can be empty;
//! * at any time `τ`, the tasks whose windows force them to be running at
//!   `τ` must simultaneously fit on the chip — an **energy** (area) bound.

use recopack_model::{Dim, Instance};

use crate::Refutation;

/// Refutes instances whose critical path exceeds the horizon.
pub fn refute_critical_path(instance: &Instance) -> Option<Refutation> {
    let length = instance.critical_path_length();
    let horizon = instance.horizon();
    (length > horizon).then_some(Refutation::CriticalPath { length, horizon })
}

/// Per-task ASAP/ALAP start windows under the instance horizon.
///
/// Returns `(asap, alap)` per task; `alap` is `None` when the task cannot
/// meet the horizon at all.
pub fn start_windows(instance: &Instance) -> (Vec<u64>, Vec<Option<u64>>) {
    let durations = instance.sizes(Dim::Time);
    let asap = instance
        .precedence()
        .earliest_starts(&durations)
        .expect("instances are acyclic");
    let alap = instance
        .precedence()
        .latest_starts(&durations, instance.horizon())
        .expect("instances are acyclic");
    (asap, alap)
}

/// Refutes instances where some task's ASAP start exceeds its ALAP start.
pub fn refute_windows(instance: &Instance) -> Option<Refutation> {
    let (asap, alap) = start_windows(instance);
    for (task, (&a, l)) in asap.iter().zip(&alap).enumerate() {
        match l {
            None => return Some(Refutation::EmptyWindow { task }),
            Some(l) if a > *l => return Some(Refutation::EmptyWindow { task }),
            _ => {}
        }
    }
    None
}

/// Refutes instances where, at some time point, the tasks forced to be
/// running need more cells than the chip has.
///
/// A task with window `[asap, alap]` and duration `d` is certainly running
/// throughout `[alap, asap + d)` (when that interval is nonempty). Checking
/// all `alap` values as candidate time points suffices, because the forced
/// set only changes there. A chip area past `u64` keeps the bound silent
/// rather than wrapping; the forced area saturates, which only weakens it.
pub fn refute_energy(instance: &Instance) -> Option<Refutation> {
    let chip = instance.chip();
    let capacity = chip.width().checked_mul(chip.height())?;
    let (asap, alap) = start_windows(instance);
    let n = instance.task_count();
    let mut candidates: Vec<u64> = Vec::with_capacity(n);
    for l in alap.iter().flatten() {
        candidates.push(*l);
    }
    candidates.sort_unstable();
    candidates.dedup();
    for &tau in &candidates {
        let mut area = 0u64;
        for i in 0..n {
            let Some(l) = alap[i] else { continue };
            let d = instance.task(i).duration();
            // forced to run at tau iff l <= tau < asap + d
            if l <= tau && tau < asap[i] + d {
                let task = instance.task(i);
                area = area.saturating_add(task.width().saturating_mul(task.height()));
            }
        }
        if area > capacity {
            return Some(Refutation::Energy {
                time: tau,
                area,
                capacity,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::{benchmarks, Chip, Instance, Task};

    #[test]
    fn critical_path_exact_boundary() {
        let build = |horizon| {
            Instance::builder()
                .chip(Chip::square(4))
                .horizon(horizon)
                .task(Task::new("a", 1, 1, 3))
                .task(Task::new("b", 1, 1, 3))
                .precedence("a", "b")
                .build()
                .expect("valid")
        };
        assert_eq!(refute_critical_path(&build(6)), None);
        assert_eq!(
            refute_critical_path(&build(5)),
            Some(Refutation::CriticalPath {
                length: 6,
                horizon: 5
            })
        );
    }

    #[test]
    fn windows_catch_deep_chains() {
        // Chain of 3 unit tasks, horizon 2: critical path (3) catches it,
        // but windows alone must too.
        let i = Instance::builder()
            .chip(Chip::square(2))
            .horizon(2)
            .task(Task::new("a", 1, 1, 1))
            .task(Task::new("b", 1, 1, 1))
            .task(Task::new("c", 1, 1, 1))
            .precedence("a", "b")
            .precedence("b", "c")
            .build()
            .expect("valid");
        assert!(refute_windows(&i).is_some());
    }

    #[test]
    fn energy_bound_sees_forced_concurrency() {
        // Two 3x3 tasks lasting 2 cycles with horizon 2 on a 4x4 chip:
        // both are forced to run at time 1 (windows are [0,0]), needing
        // 18 > 16 cells. Volume: 36 > 32 would catch it too, so shrink one
        // task to keep volume under capacity but areas overlapping:
        // 3x3x2 + 3x3x2 on 4x4x3: volume 36 <= 48, windows [0,1] each; at
        // tau = 1 both forced (alap 1 <= 1 < 0+2): area 18 > 16.
        let i = Instance::builder()
            .chip(Chip::square(4))
            .horizon(3)
            .task(Task::new("a", 3, 3, 2))
            .task(Task::new("b", 3, 3, 2))
            .build()
            .expect("valid");
        assert_eq!(crate::volume::refute_volume(&i), None);
        assert_eq!(
            refute_energy(&i),
            Some(Refutation::Energy {
                time: 1,
                area: 18,
                capacity: 16
            })
        );
    }

    #[test]
    fn energy_not_triggered_with_slack() {
        let i = Instance::builder()
            .chip(Chip::square(4))
            .horizon(4)
            .task(Task::new("a", 3, 3, 2))
            .task(Task::new("b", 3, 3, 2))
            .build()
            .expect("valid");
        assert_eq!(refute_energy(&i), None);
    }

    #[test]
    fn de_at_tight_horizons() {
        // DE on 32x32 at horizon 5 < critical path 6: refuted.
        let i = benchmarks::de(Chip::square(32), 5).with_transitive_closure();
        assert!(refute_critical_path(&i).is_some());
        // At horizon 6 no precedence bound fires (it is feasible).
        let ok = benchmarks::de(Chip::square(32), 6).with_transitive_closure();
        assert_eq!(refute_critical_path(&ok), None);
        assert_eq!(refute_windows(&ok), None);
        assert_eq!(refute_energy(&ok), None);
    }

    #[test]
    fn de_small_chip_tight_horizon_refuted_by_energy() {
        // On a 16x16 chip at horizon 6, the four chain multiplications v1,
        // v2 -> v3 and v6 -> v7 squeeze: windows force full-chip MULs to
        // overlap. Expect an energy refutation.
        let i = benchmarks::de(Chip::square(16), 6).with_transitive_closure();
        assert!(refute_energy(&i).is_some());
    }
}
