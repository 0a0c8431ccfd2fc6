//! Dual feasible functions, implemented in exact integer arithmetic.
//!
//! A *dual feasible function* (DFF) is `f : [0, 1] → [0, 1]` such that for
//! any finite multiset with `Σ xᵢ ≤ 1` also `Σ f(xᵢ) ≤ 1`. Fekete & Schepers
//! (IPCO'98) showed that applying DFFs `f₁, f₂, f₃` to the three normalized
//! side lengths of every box preserves packability — so if the *rescaled*
//! volumes exceed the container, the original instance is infeasible. With
//! well-chosen step functions this dominates the plain volume bound.
//!
//! To keep refutations exact we never touch floating point: a DFF is
//! represented by an integer map `v : {0..W} → {0..D}` with denominator `D`,
//! meaning `f(w / W) = v(w) / D`. The map is evaluated in closed form at
//! the task sizes only, never tabulated over `0..W`, so the bound's cost
//! does not grow with the container.
//!
//! Implemented families (paper's references [8, 10]):
//!
//! * identity — `f(x) = x`, giving the plain volume bound;
//! * `u^(ε)` — the threshold function: sizes above `1 − ε` count as the
//!   whole container, sizes below `ε` count as nothing;
//! * `f^(k)` — the staircase rounding of Fekete–Schepers.

use recopack_model::{Dim, Instance};

use crate::Refutation;

/// An integer-exact dual feasible function for one dimension of capacity `W`:
/// size `w` maps to `value(w) / denominator()` of the container.
///
/// Values are computed in closed form, so a DFF costs the same on a
/// 10⁹-wide chip as on a 10-wide one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegerDff {
    capacity: u64,
    family: Family,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Identity,
    Threshold { eps_num: u64 },
    Staircase { k: u64 },
}

impl IntegerDff {
    /// The identity DFF on capacity `capacity`.
    pub fn identity(capacity: u64) -> Self {
        Self {
            capacity,
            family: Family::Identity,
        }
    }

    /// The threshold DFF `u^(ε)` with `ε = eps_num / capacity`:
    /// `f(x) = 1` for `x > 1 − ε`, `x` for `ε ≤ x ≤ 1 − ε`, `0` for `x < ε`.
    ///
    /// Requires `0 < eps_num` and `2 * eps_num <= capacity` (otherwise the
    /// function is not dual feasible).
    ///
    /// # Panics
    ///
    /// Panics if `eps_num == 0` or `2 * eps_num > capacity`.
    pub fn threshold(capacity: u64, eps_num: u64) -> Self {
        assert!(eps_num > 0, "epsilon must be positive");
        assert!(2 * eps_num <= capacity, "epsilon must be at most 1/2");
        Self {
            capacity,
            family: Family::Threshold { eps_num },
        }
    }

    /// The staircase DFF `f^(k)` of Fekete–Schepers:
    /// `f(x) = x` when `(k+1)·x` is integral, else `⌊(k+1)·x⌋ / k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn staircase(capacity: u64, k: u64) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            capacity,
            family: Family::Staircase { k },
        }
    }

    /// Name identifying the family and parameter, formatted on each call.
    pub fn name(&self) -> String {
        match self.family {
            Family::Identity => "id".to_string(),
            Family::Threshold { eps_num } => format!("u^({eps_num}/{})", self.capacity),
            Family::Staircase { k } => format!("f^({k})"),
        }
    }

    /// The transformed size of `w`, in units of `1 / denominator()`, for
    /// `w` at most the capacity.
    pub fn value(&self, w: u64) -> u64 {
        let capacity = self.capacity;
        match self.family {
            Family::Identity => w,
            Family::Threshold { eps_num } => {
                if w > capacity - eps_num {
                    capacity
                } else if w >= eps_num {
                    w
                } else {
                    0
                }
            }
            // Common denominator k * capacity:
            //   integral case: value = k * w
            //   else:          value = capacity * floor((k+1) w / capacity)
            Family::Staircase { k } => {
                if ((k + 1) * w).is_multiple_of(capacity) {
                    k * w
                } else {
                    capacity * (((k + 1) * w) / capacity)
                }
            }
        }
    }

    /// The denominator of the representation.
    pub fn denominator(&self) -> u64 {
        match self.family {
            Family::Identity | Family::Threshold { .. } => self.capacity,
            Family::Staircase { k } => k * self.capacity,
        }
    }

    /// Verifies dual feasibility exhaustively for all integer multisets that
    /// fit — used by tests and available for debugging custom DFFs. Checks
    /// the equivalent, finite condition: for every multiset of sizes summing
    /// to ≤ capacity, transformed sizes sum to ≤ denominator. By convexity
    /// it suffices to check greedy worst cases; we do full DFS over
    /// nonincreasing size sequences (small capacities only).
    pub fn is_dual_feasible(&self) -> bool {
        // DFS over multisets with nonincreasing sizes.
        fn dfs(dff: &IntegerDff, max_size: u64, left: u64, acc: u64) -> bool {
            if acc > dff.denominator() {
                return false;
            }
            for s in (1..=max_size.min(left)).rev() {
                if !dfs(dff, s, left - s, acc + dff.value(s)) {
                    return false;
                }
            }
            true
        }
        dfs(self, self.capacity, self.capacity, 0)
    }
}

/// All stock DFFs for a dimension of capacity `capacity`, given the distinct
/// task sizes occurring in that dimension (thresholds are only useful at
/// occurring sizes).
pub fn stock_dffs(capacity: u64, sizes: &[u64]) -> Vec<IntegerDff> {
    let mut dffs = vec![IntegerDff::identity(capacity)];
    let mut eps: Vec<u64> = sizes
        .iter()
        .copied()
        .filter(|&s| s > 0 && 2 * s <= capacity)
        .collect();
    eps.sort_unstable();
    eps.dedup();
    for e in eps {
        dffs.push(IntegerDff::threshold(capacity, e));
    }
    for k in 1..=3 {
        dffs.push(IntegerDff::staircase(capacity, k));
    }
    dffs
}

/// One dimension's stock DFFs that no earlier stock DFF dominates, with
/// their values at every task size in one flat buffer.
struct Evaluated {
    dffs: Vec<IntegerDff>,
    /// Row `j` (of length `tasks`) holds `dffs[j]`'s value for each task id.
    values: Vec<u64>,
    tasks: usize,
}

impl Evaluated {
    /// Evaluates the stock DFFs at `sizes`, dropping each one an earlier
    /// kept one dominates. `sizes` must be nonempty.
    fn new(capacity: u64, sizes: &[u64]) -> Self {
        let tasks = sizes.len();
        let mut dffs: Vec<IntegerDff> = Vec::new();
        let mut values = Vec::new();
        for dff in stock_dffs(capacity, sizes) {
            let row = values.len();
            values.extend(sizes.iter().map(|&s| dff.value(s)));
            let (kept, new) = values.split_at(row);
            if dffs
                .iter()
                .zip(kept.chunks_exact(tasks))
                .any(|(earlier, old)| dominates((earlier, old), (&dff, new)))
            {
                values.truncate(row);
            } else {
                dffs.push(dff);
            }
        }
        Self {
            dffs,
            values,
            tasks,
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&IntegerDff, &[u64])> {
        self.dffs.iter().zip(self.values.chunks_exact(self.tasks))
    }
}

/// Whether DFF `a` rescales every task at least as much as DFF `b`, as a
/// share of the container: `va / Da ≥ vb / Db` at each task, compared
/// exactly as `va · Db ≥ vb · Da`.
fn dominates(a: (&IntegerDff, &[u64]), b: (&IntegerDff, &[u64])) -> bool {
    let (da, db) = (u128::from(a.0.denominator()), u128::from(b.0.denominator()));
    a.1.iter()
        .zip(b.1)
        .all(|(&va, &vb)| u128::from(va) * db >= u128::from(vb) * da)
}

/// Whether [`refute_dff`]'s arithmetic is exact for `tasks` tasks that fit
/// `container`: a rescaled size is at most its denominator, at most 3× the
/// capacity (u64), so a rescaled volume sum is below
/// `(tasks + 1) · 4W · 4H · 4T` (u128). Holds up to sides of about 10¹².
fn exact_range(container: [u64; 3], tasks: usize) -> bool {
    container
        .iter()
        .try_fold(tasks as u128 + 1, |acc, &c| {
            (c <= u64::MAX / 4).then_some(acc.checked_mul(4 * u128::from(c))?)
        })
        .is_some()
}

/// Tries combinations of stock DFFs over the three dimensions; returns a
/// refutation if any combination pushes the rescaled volume over capacity.
///
/// Combinations are tried in lexicographic `(x, y, t)` order of the stock
/// lists, and the first refuting one is returned. A DFF that an earlier one
/// of its dimension dominates at every task is skipped: the rescaled volume
/// grows with each factor, so swapping in the dominator refutes too, at an
/// earlier combination. The first refuting combination therefore never
/// uses a skipped DFF, and skipping leaves the answer unchanged.
pub fn refute_dff(instance: &Instance) -> Option<Refutation> {
    let container = instance.container();
    // An empty instance has nothing to refute; degenerate containers and
    // oversized tasks are the fit bound's. Past the exact range the sums
    // below could wrap, and the bound stays silent rather than risk an
    // unsound refutation.
    if instance.task_count() == 0
        || container.contains(&0)
        || !exact_range(container, instance.task_count())
        || crate::volume::refute_fit(instance).is_some()
    {
        return None;
    }
    let [xs, ys, ts] = Dim::ALL.map(|d| Evaluated::new(container[d.index()], &instance.sizes(d)));
    let mut xy = vec![0u128; instance.task_count()];
    for (fx, vx) in xs.iter() {
        for (fy, vy) in ys.iter() {
            for ((p, &x), &y) in xy.iter_mut().zip(vx).zip(vy) {
                *p = u128::from(x) * u128::from(y);
            }
            let capacity_xy = u128::from(fx.denominator()) * u128::from(fy.denominator());
            for (ft, vt) in ts.iter() {
                let capacity = capacity_xy * u128::from(ft.denominator());
                let total: u128 = xy.iter().zip(vt).map(|(&p, &t)| p * u128::from(t)).sum();
                if total > capacity {
                    return Some(Refutation::Dff {
                        dffs: [*fx, *fy, *ft],
                        total,
                        capacity,
                    });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recopack_model::{Chip, Task};

    #[test]
    fn identity_is_dual_feasible() {
        assert!(IntegerDff::identity(12).is_dual_feasible());
    }

    #[test]
    fn thresholds_are_dual_feasible() {
        for cap in [7u64, 10, 12] {
            for e in 1..=cap / 2 {
                assert!(
                    IntegerDff::threshold(cap, e).is_dual_feasible(),
                    "u^({e}/{cap})"
                );
            }
        }
    }

    #[test]
    fn staircases_are_dual_feasible() {
        for cap in [6u64, 9, 11] {
            for k in 1..=4 {
                assert!(
                    IntegerDff::staircase(cap, k).is_dual_feasible(),
                    "f^({k}) cap {cap}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 1/2")]
    fn oversized_epsilon_rejected() {
        IntegerDff::threshold(10, 6);
    }

    #[test]
    fn threshold_beats_plain_volume() {
        // Two 6x6 blocks cannot coexist on a 10x10 chip (6+6 > 10 in both
        // spatial dimensions), yet total volume 88 <= 100 passes the plain
        // volume bound. The staircase f^(1) maps 6 -> 10 and 4 -> 0 per
        // spatial dimension, giving rescaled volume 200 > 100.
        let i = Instance::builder()
            .chip(Chip::square(10))
            .horizon(1)
            .task(Task::new("a", 6, 6, 1))
            .task(Task::new("b", 6, 6, 1))
            .task(Task::new("c", 4, 4, 1))
            .build()
            .expect("valid");
        assert_eq!(crate::volume::refute_volume(&i), None);
        let refutation = refute_dff(&i);
        assert!(
            matches!(refutation, Some(Refutation::Dff { .. })),
            "{refutation:?}"
        );
    }

    #[test]
    fn refutation_names_the_combination() {
        let i = Instance::builder()
            .chip(Chip::square(10))
            .horizon(1)
            .task(Task::new("a", 6, 6, 1))
            .task(Task::new("b", 6, 6, 1))
            .task(Task::new("c", 4, 4, 1))
            .build()
            .expect("valid");
        let refutation = refute_dff(&i).expect("refuted");
        assert_eq!(
            refutation,
            Refutation::Dff {
                dffs: [
                    IntegerDff::identity(10),
                    IntegerDff::staircase(10, 1),
                    IntegerDff::identity(1)
                ],
                total: 120,
                capacity: 100
            }
        );
        assert_eq!(
            refutation.to_string(),
            "DFF bound violated: (id, f^(1), id): rescaled volume 120 > 100"
        );
    }

    /// The sweep without dominance pruning: every stock combination in
    /// `(x, y, t)` order. The pruned sweep must return exactly its answer.
    fn refute_dff_full(instance: &Instance) -> Option<Refutation> {
        let container = instance.container();
        if container.contains(&0)
            || !exact_range(container, instance.task_count())
            || crate::volume::refute_fit(instance).is_some()
        {
            return None;
        }
        let [xs, ys, ts] = Dim::ALL.map(|d| {
            let sizes = instance.sizes(d);
            stock_dffs(container[d.index()], &sizes)
                .into_iter()
                .map(|dff| (dff, sizes.iter().map(|&s| dff.value(s)).collect()))
                .collect::<Vec<(IntegerDff, Vec<u64>)>>()
        });
        for (fx, vx) in &xs {
            for (fy, vy) in &ys {
                for (ft, vt) in &ts {
                    let capacity = u128::from(fx.denominator())
                        * u128::from(fy.denominator())
                        * u128::from(ft.denominator());
                    let total: u128 = vx
                        .iter()
                        .zip(vy)
                        .zip(vt)
                        .map(|((&x, &y), &t)| u128::from(x) * u128::from(y) * u128::from(t))
                        .sum();
                    if total > capacity {
                        return Some(Refutation::Dff {
                            dffs: [*fx, *fy, *ft],
                            total,
                            capacity,
                        });
                    }
                }
            }
        }
        None
    }

    #[test]
    fn pruned_sweep_matches_the_full_one() {
        use rand::{rngs::StdRng, SeedableRng};
        use recopack_model::benchmarks::{de, video_codec};
        use recopack_model::generate::{
            random_feasible_instance, random_instance, GeneratorConfig,
        };

        let mut instances = Vec::new();
        for side in 16..=48 {
            for horizon in 2..=14 {
                instances.push(de(Chip::square(side), horizon));
            }
        }
        for side in 60..=72 {
            for horizon in (40..=70).step_by(3) {
                instances.push(video_codec(Chip::square(side), horizon));
            }
        }
        let mut rng = StdRng::seed_from_u64(17);
        for task_count in 3..=10 {
            for max_side in [2, 4, 6] {
                let config = GeneratorConfig {
                    task_count,
                    max_side,
                    ..GeneratorConfig::default()
                };
                for _ in 0..8 {
                    let i = random_instance(&config, &mut rng);
                    let tighter = i.horizon().saturating_sub(1).max(1);
                    instances.push(i.clone().with_horizon(tighter));
                    instances.push(i);
                    instances.push(random_feasible_instance(&config, &mut rng).0);
                }
            }
        }
        let mut refuted = 0;
        let mut past_identity = 0;
        for i in &instances {
            let pruned = refute_dff(i);
            assert_eq!(pruned, refute_dff_full(i), "{i:?}");
            if let Some(Refutation::Dff { dffs, .. }) = &pruned {
                refuted += 1;
                past_identity += usize::from(dffs.iter().any(|f| f.name() != "id"));
            }
        }
        // Both answers occur, and so do refutations the plain volume misses.
        assert!(refuted > 0 && refuted < instances.len(), "{refuted}");
        assert!(past_identity > 0);
    }

    #[test]
    fn closed_forms_match_their_definitions() {
        let cap = 12;
        let staircase = IntegerDff::staircase(cap, 2);
        assert_eq!(staircase.denominator(), 24);
        // 3 * 4 / 12 is integral: f(x) = x, i.e. 2 * 4 / 24.
        assert_eq!(staircase.value(4), 8);
        // 3 * 5 / 12 = 1.25: f(x) = 1 / 2, i.e. 12 / 24.
        assert_eq!(staircase.value(5), 12);
        let threshold = IntegerDff::threshold(cap, 3);
        assert_eq!(
            (0..=cap).map(|w| threshold.value(w)).collect::<Vec<_>>(),
            [0, 0, 0, 3, 4, 5, 6, 7, 8, 9, 12, 12, 12]
        );
        assert_eq!(threshold.name(), "u^(3/12)");
    }

    #[test]
    fn billion_sided_containers_cost_no_table() {
        // Three small modules on a 10^9 x 10^9 chip: every bound passes,
        // and no DFF is tabulated over the billion sizes.
        let i = Instance::builder()
            .chip(Chip::square(1_000_000_000))
            .horizon(4)
            .task(Task::new("a", 2, 2, 2))
            .task(Task::new("b", 3, 1, 2))
            .task(Task::new("c", 1, 5, 1))
            .precedence("a", "b")
            .build()
            .expect("valid");
        assert_eq!(crate::refute(&i), None);
    }

    #[test]
    fn containers_past_the_exact_range_are_left_alone() {
        // The threshold instance scaled by 10^12 in every dimension: the
        // rescaled volumes would pass 2^128, so the bound must stay silent
        // instead of wrapping; scaled in space only, it still refutes.
        let scaled = |s: u64, t: u64| {
            Instance::builder()
                .chip(Chip::square(10 * s))
                .horizon(t)
                .task(Task::new("a", 6 * s, 6 * s, t))
                .task(Task::new("b", 6 * s, 6 * s, t))
                .task(Task::new("c", 4 * s, 4 * s, t))
                .build()
                .expect("valid")
        };
        let big = 1_000_000_000_000;
        assert_eq!(refute_dff(&scaled(big, big)), None);
        assert!(matches!(
            refute_dff(&scaled(big, 1)),
            Some(Refutation::Dff { .. })
        ));
    }

    #[test]
    fn feasible_paper_row_not_refuted() {
        use recopack_model::benchmarks::de;
        let i = de(Chip::square(16), 14);
        assert_eq!(refute_dff(&i), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn stock_dffs_are_dual_feasible(cap in 2u64..11) {
            let sizes: Vec<u64> = (1..=cap).collect();
            for dff in stock_dffs(cap, &sizes) {
                prop_assert!(dff.is_dual_feasible(), "{} cap {}", dff.name(), cap);
            }
        }

        #[test]
        fn dff_never_refutes_a_packable_witness(seed in 0u64..60) {
            use rand::{rngs::StdRng, SeedableRng};
            use recopack_model::generate::{random_feasible_instance, GeneratorConfig};
            let mut rng = StdRng::seed_from_u64(seed);
            let (i, _) = random_feasible_instance(&GeneratorConfig::default(), &mut rng);
            prop_assert_eq!(refute_dff(&i), None);
        }
    }
}
