//! Precedence-aware lower bounds.
//!
//! The dependency DAG gives bounds no pure packing argument sees:
//!
//! * the duration-weighted **critical path** is a floor on any makespan;
//! * ASAP/ALAP **start windows** under the horizon can be empty;
//! * at any time `τ`, the tasks whose windows force them to be running at
//!   `τ` must simultaneously fit on the chip — an **energy** (area) bound.
//!
//! All three read one [`Timing`] pass: a task's window is
//! `[head, horizon − tail]`.

use recopack_model::{Instance, Timing};

use crate::Refutation;

/// Refutes instances whose critical path exceeds the horizon.
pub fn refute_critical_path(instance: &Instance, timing: &Timing) -> Option<Refutation> {
    let length = timing.length();
    let horizon = instance.horizon();
    (length > horizon).then_some(Refutation::CriticalPath { length, horizon })
}

/// Refutes instances where some task's ASAP start exceeds its ALAP start,
/// i.e. its head and tail overrun the horizon.
pub fn refute_windows(instance: &Instance, timing: &Timing) -> Option<Refutation> {
    let horizon = instance.horizon();
    timing
        .heads()
        .iter()
        .zip(timing.tails())
        .position(|(&head, &tail)| horizon.checked_sub(tail).is_none_or(|alap| head > alap))
        .map(|task| Refutation::EmptyWindow { task })
}

/// Refutes instances where, at some time point, the tasks forced to be
/// running need more cells than the chip has.
///
/// A task with window `[asap, alap]` and duration `d` is certainly running
/// throughout `[alap, asap + d)` (when that interval is nonempty). Checking
/// all `alap` values as candidate time points suffices, because the forced
/// set only changes there. A chip area past `u64` keeps the bound silent
/// rather than wrapping; the forced area saturates, which only weakens it.
pub fn refute_energy(instance: &Instance, timing: &Timing) -> Option<Refutation> {
    let chip = instance.chip();
    let capacity = chip.width().checked_mul(chip.height())?;
    let horizon = instance.horizon();
    let alap: Vec<Option<u64>> = timing
        .tails()
        .iter()
        .map(|&tail| horizon.checked_sub(tail))
        .collect();
    let mut candidates: Vec<u64> = alap.iter().flatten().copied().collect();
    candidates.sort_unstable();
    candidates.dedup();
    for &tau in &candidates {
        let mut area = 0u64;
        for (i, task) in instance.tasks().iter().enumerate() {
            let Some(l) = alap[i] else { continue };
            // forced to run at tau iff l <= tau < asap + d
            if l <= tau && tau < timing.heads()[i].saturating_add(task.duration()) {
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
        let (fits, tight) = (build(6), build(5));
        assert_eq!(refute_critical_path(&fits, &fits.timing()), None);
        assert_eq!(
            refute_critical_path(&tight, &tight.timing()),
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
        assert!(refute_windows(&i, &i.timing()).is_some());
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
            refute_energy(&i, &i.timing()),
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
        assert_eq!(refute_energy(&i, &i.timing()), None);
    }

    #[test]
    fn de_at_tight_horizons() {
        // DE on 32x32 at horizon 5 < critical path 6: refuted.
        let i = benchmarks::de(Chip::square(32), 5).with_transitive_closure();
        assert!(refute_critical_path(&i, &i.timing()).is_some());
        // At horizon 6 no precedence bound fires (it is feasible).
        let ok = benchmarks::de(Chip::square(32), 6).with_transitive_closure();
        let timing = ok.timing();
        assert_eq!(refute_critical_path(&ok, &timing), None);
        assert_eq!(refute_windows(&ok, &timing), None);
        assert_eq!(refute_energy(&ok, &timing), None);
    }

    #[test]
    fn de_small_chip_tight_horizon_refuted_by_energy() {
        // On a 16x16 chip at horizon 6, the four chain multiplications v1,
        // v2 -> v3 and v6 -> v7 squeeze: windows force full-chip MULs to
        // overlap. Expect an energy refutation.
        let i = benchmarks::de(Chip::square(16), 6).with_transitive_closure();
        assert!(refute_energy(&i, &i.timing()).is_some());
    }
}
