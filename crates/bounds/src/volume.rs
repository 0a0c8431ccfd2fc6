//! Elementary fit and volume bounds.

use recopack_model::{Dim, Instance};

use crate::Refutation;

/// Refutes instances where some single task exceeds the container in a
/// dimension (tasks are not rotatable).
pub fn refute_fit(instance: &Instance) -> Option<Refutation> {
    let container = instance.container();
    for (i, t) in instance.tasks().iter().enumerate() {
        for d in Dim::ALL {
            if t.size(d) > container[d.index()] {
                return Some(Refutation::TaskTooLarge { task: i, dim: d });
            }
        }
    }
    None
}

/// Refutes instances whose total task volume exceeds the container volume.
///
/// A container volume past `u64` keeps the bound silent rather than
/// wrapping; the task total saturates, which only weakens the bound.
pub fn refute_volume(instance: &Instance) -> Option<Refutation> {
    let [w, h, t] = instance.container();
    let capacity = w.checked_mul(h)?.checked_mul(t)?;
    let total = instance.total_volume();
    (total > capacity).then_some(Refutation::Volume { total, capacity })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::{Chip, Task};

    fn base() -> recopack_model::InstanceBuilder {
        Instance::builder().chip(Chip::new(4, 3)).horizon(2)
    }

    #[test]
    fn fit_checks_each_dimension() {
        let wide = base().task(Task::new("w", 5, 1, 1)).build().expect("valid");
        assert!(matches!(
            refute_fit(&wide),
            Some(Refutation::TaskTooLarge { dim: Dim::X, .. })
        ));
        let tall = base().task(Task::new("h", 1, 4, 1)).build().expect("valid");
        assert!(matches!(
            refute_fit(&tall),
            Some(Refutation::TaskTooLarge { dim: Dim::Y, .. })
        ));
        let long = base().task(Task::new("t", 1, 1, 3)).build().expect("valid");
        assert!(matches!(
            refute_fit(&long),
            Some(Refutation::TaskTooLarge { dim: Dim::Time, .. })
        ));
        let fits = base()
            .task(Task::new("ok", 4, 3, 2))
            .build()
            .expect("valid");
        assert_eq!(refute_fit(&fits), None);
    }

    #[test]
    fn volume_boundary_is_exact() {
        // Capacity 4*3*2 = 24; exactly 24 is fine, 25 is not.
        let exact = base()
            .task(Task::new("a", 4, 3, 1))
            .task(Task::new("b", 4, 3, 1))
            .build()
            .expect("valid");
        assert_eq!(refute_volume(&exact), None);
        let over = base()
            .task(Task::new("a", 4, 3, 2))
            .task(Task::new("b", 1, 1, 1))
            .build()
            .expect("valid");
        assert_eq!(
            refute_volume(&over),
            Some(Refutation::Volume {
                total: 25,
                capacity: 24
            })
        );
    }
}
