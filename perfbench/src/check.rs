//! The benchmark's own answer checker. It re-derives feasibility of a
//! packing from the instance alone and shares no code with the solver's
//! `Placement::verify`, so a bug there cannot hide a wrong answer here.

use recopack_model::Instance;

/// Why a packing does not solve its instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The packing has a different number of boxes than the instance has
    /// tasks.
    TaskCount { boxes: usize, tasks: usize },
    /// A box sticks out of the container along dimension `dim`.
    OutsideContainer { task: usize, dim: usize },
    /// Two boxes overlap in every dimension.
    Overlap { a: usize, b: usize },
    /// A precedence arc `before → after` whose successor starts before its
    /// predecessor ends.
    Precedence { before: usize, after: usize },
}

/// Checks that `origins` (one `[x, y, t]` per task, in task order) packs
/// `instance`: every box lies inside the container, every pair of boxes is
/// disjoint in at least one dimension, and every precedence arc's
/// predecessor ends no later than its successor starts.
pub fn check_placement(instance: &Instance, origins: &[[u64; 3]]) -> Result<(), Violation> {
    let tasks = instance.tasks();
    if origins.len() != tasks.len() {
        return Err(Violation::TaskCount {
            boxes: origins.len(),
            tasks: tasks.len(),
        });
    }
    let sizes: Vec<[u64; 3]> = tasks
        .iter()
        .map(|t| [t.width(), t.height(), t.duration()])
        .collect();
    let container = instance.container();
    for (task, (origin, size)) in origins.iter().zip(&sizes).enumerate() {
        for dim in 0..3 {
            if origin[dim] + size[dim] > container[dim] {
                return Err(Violation::OutsideContainer { task, dim });
            }
        }
    }
    for a in 0..origins.len() {
        for b in a + 1..origins.len() {
            let disjoint_somewhere = (0..3).any(|d| {
                origins[a][d] + sizes[a][d] <= origins[b][d]
                    || origins[b][d] + sizes[b][d] <= origins[a][d]
            });
            if !disjoint_somewhere {
                return Err(Violation::Overlap { a, b });
            }
        }
    }
    for (before, after) in instance.precedence().arcs() {
        if origins[before][2] + sizes[before][2] > origins[after][2] {
            return Err(Violation::Precedence { before, after });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::{Chip, Task};

    /// Two 2×2×2 boxes on a 4×2 chip over 4 cycles, `a` before `c`.
    fn instance() -> Instance {
        Instance::builder()
            .chip(Chip::new(4, 2))
            .horizon(4)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 2, 2, 2))
            .task(Task::new("c", 4, 2, 2))
            .precedence("a", "c")
            .build()
            .expect("valid")
    }

    #[test]
    fn accepts_a_packing_whose_boxes_touch() {
        let ok = [[0, 0, 0], [2, 0, 0], [0, 0, 2]];
        assert_eq!(check_placement(&instance(), &ok), Ok(()));
    }

    #[test]
    fn rejects_a_missing_box() {
        assert_eq!(
            check_placement(&instance(), &[[0, 0, 0], [2, 0, 0]]),
            Err(Violation::TaskCount { boxes: 2, tasks: 3 })
        );
    }

    #[test]
    fn rejects_each_container_side() {
        for (dim, origin) in [(0, [3, 0, 0]), (1, [0, 1, 0]), (2, [0, 0, 3])] {
            let boxes = [origin, [2, 0, 0], [0, 0, 2]];
            assert_eq!(
                check_placement(&instance(), &boxes),
                Err(Violation::OutsideContainer { task: 0, dim }),
                "dimension {dim}"
            );
        }
    }

    #[test]
    fn rejects_an_overlap() {
        let boxes = [[0, 0, 0], [1, 0, 1], [0, 0, 2]];
        assert_eq!(
            check_placement(&instance(), &boxes),
            Err(Violation::Overlap { a: 0, b: 1 })
        );
    }

    #[test]
    fn rejects_a_broken_precedence() {
        // `c` fills the chip, so it cannot run beside `a`; run `a` second.
        let boxes = [[0, 0, 2], [2, 0, 2], [0, 0, 0]];
        assert_eq!(
            check_placement(&instance(), &boxes),
            Err(Violation::Precedence {
                before: 0,
                after: 2
            })
        );
    }
}
