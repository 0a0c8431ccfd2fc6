//! Seeded input generators. Every instance a workload solves comes from
//! here, so the same seed always yields byte-identical inputs, and the
//! program under test never sees the seed itself.
//!
//! Families whose answer is known by construction carry it as a [`Truth`]:
//! a witnessed instance is built around a collision-free packing (and the
//! container is shrunk to that packing's bounding box), an overflowing one
//! holds more task volume than its container.

use recopack_model::{Chip, Instance, Task};

/// SplitMix64: a small, fast generator whose output is fixed by its seed on
/// every platform.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator for `seed`; `stream` separates independent streams
    /// derived from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03),
        };
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo + 1;
        lo + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// An index in `0..len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.range(0, len as u64 - 1) as usize
    }

    /// True with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.range(0, 99) < percent
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

/// The answer an instance is known to have, when its generator fixes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// A packing exists (the generator built one).
    Feasible,
    /// No packing exists (the tasks' volume exceeds the container's).
    Infeasible,
    /// The generator does not fix the answer.
    Unknown,
}

/// One generated decision instance.
#[derive(Debug, Clone)]
pub struct Case {
    /// The instance, precedence already transitively closed.
    pub instance: Instance,
    /// Its answer, when known by construction.
    pub truth: Truth,
    /// The witness packing of a [`Truth::Feasible`] case, one origin per
    /// task in task order.
    pub witness: Option<Vec<[u64; 3]>>,
}

/// A task shape `[width, height, duration]`.
pub type Shape = [u64; 3];

/// Builds an instance whose tasks take the given shapes, with arcs between
/// shape indices, after shuffling task order and drawing fresh task names.
/// Returns the instance and the permutation used: task `i` of the result is
/// input shape `order[i]`.
fn assemble(
    rng: &mut Rng,
    shapes: &[Shape],
    arcs: &[(usize, usize)],
    container: [u64; 3],
) -> (Instance, Vec<usize>) {
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    rng.shuffle(&mut order);
    let salt = rng.range(0, 0xffff);
    let name = |i: usize| format!("m{salt:x}_{i}");
    let mut position = vec![0; shapes.len()];
    let mut builder = Instance::builder()
        .chip(Chip::new(container[0], container[1]))
        .horizon(container[2]);
    for (slot, &i) in order.iter().enumerate() {
        position[i] = slot;
        let [w, h, d] = shapes[i];
        builder = builder.task(Task::new(name(slot), w, h, d));
    }
    for &(u, v) in arcs {
        builder = builder.precedence(name(position[u]), name(position[v]));
    }
    let instance = builder
        .build()
        .expect("generated shapes are nonzero and generated arcs are acyclic")
        .with_transitive_closure();
    (instance, order)
}

/// Arcs `u → v` for `u < v`, each with probability `percent`.
fn forward_arcs(rng: &mut Rng, n: usize, percent: u64) -> Vec<(usize, usize)> {
    let mut arcs = Vec::new();
    for v in 1..n {
        for u in 0..v {
            if rng.percent(percent) {
                arcs.push((u, v));
            }
        }
    }
    arcs
}

fn random_shape(rng: &mut Rng, max_side: u64, max_duration: u64) -> Shape {
    [
        rng.range(1, max_side),
        rng.range(1, max_side),
        rng.range(1, max_duration),
    ]
}

/// Longest duration-weighted chain through `arcs` (which run from lower to
/// higher index).
fn critical_path(shapes: &[Shape], arcs: &[(usize, usize)]) -> u64 {
    let mut finish: Vec<u64> = shapes.iter().map(|s| s[2]).collect();
    let mut sorted = arcs.to_vec();
    sorted.sort_by_key(|&(_, v)| v);
    for (u, v) in sorted {
        finish[v] = finish[v].max(finish[u] + shapes[v][2]);
    }
    finish.into_iter().max().unwrap_or(0)
}

/// A square container whose volume is the tasks' volume over `fill`
/// percent, at least as wide as the widest task and at least as long as the
/// critical path.
fn tight_container(shapes: &[Shape], arcs: &[(usize, usize)], rng: &mut Rng) -> [u64; 3] {
    let volume: u64 = shapes.iter().map(|s| s[0] * s[1] * s[2]).sum();
    let widest = shapes.iter().map(|s| s[0].max(s[1])).max().unwrap_or(1);
    let side = rng.range(widest, widest + 2);
    let fill = rng.range(80, 100);
    let horizon = (volume * 100).div_ceil(side * side * fill);
    [side, side, horizon.max(critical_path(shapes, arcs))]
}

/// Random shapes and arcs in a container near the volume bound; the answer
/// is not fixed.
pub fn volume_tight(rng: &mut Rng, n: usize) -> Case {
    let shapes: Vec<Shape> = (0..n).map(|_| random_shape(rng, 4, 3)).collect();
    let arcs = forward_arcs(rng, n, 35);
    let container = tight_container(&shapes, &arcs, rng);
    let (instance, _) = assemble(rng, &shapes, &arcs, container);
    Case {
        instance,
        truth: Truth::Unknown,
        witness: None,
    }
}

/// A library of `kinds` distinct module shapes.
fn module_library(rng: &mut Rng, kinds: usize, max_side: u64, max_duration: u64) -> Vec<Shape> {
    let mut library: Vec<Shape> = Vec::with_capacity(kinds);
    while library.len() < kinds {
        let shape = random_shape(rng, max_side, max_duration);
        if !library.contains(&shape) {
            library.push(shape);
        }
    }
    library
}

/// Tasks drawn from a 2–4-shape module library, as real module libraries
/// repeat a few shapes, in a container near the volume bound; the answer is
/// not fixed.
pub fn library_tight(rng: &mut Rng, n: usize) -> Case {
    let kinds = rng.range(2, 4) as usize;
    let library = module_library(rng, kinds, 4, 3);
    let shapes: Vec<Shape> = (0..n).map(|_| library[rng.index(kinds)]).collect();
    let arcs = forward_arcs(rng, n, 35);
    let container = tight_container(&shapes, &arcs, rng);
    let (instance, _) = assemble(rng, &shapes, &arcs, container);
    Case {
        instance,
        truth: Truth::Unknown,
        witness: None,
    }
}

/// A feasible instance built around a packing: each box lands at a random
/// spot of a `side × side` floor and drops to the earliest start at which it
/// collides with nothing placed so far. The container is then shrunk to the
/// packing's bounding box, and arcs are drawn only between boxes the packing
/// already orders in time.
pub fn witnessed(rng: &mut Rng, n: usize, max_side: u64, max_duration: u64) -> Case {
    let shapes: Vec<Shape> = (0..n)
        .map(|_| random_shape(rng, max_side, max_duration))
        .collect();
    let side = max_side + rng.range(1, max_side);
    let mut origins: Vec<[u64; 3]> = Vec::with_capacity(n);
    for shape in &shapes {
        let x = rng.range(0, side - shape[0]);
        let y = rng.range(0, side - shape[1]);
        let collides_at = |t: u64| {
            origins.iter().zip(&shapes).any(|(o, s)| {
                let here = [x, y, t];
                (0..3).all(|d| here[d] < o[d] + s[d] && o[d] < here[d] + shape[d])
            })
        };
        let t = std::iter::once(0)
            .chain(origins.iter().zip(&shapes).map(|(o, s)| o[2] + s[2]))
            .filter(|&t| !collides_at(t))
            .min()
            .expect("above every placed box nothing collides");
        origins.push([x, y, t]);
    }
    let mut container = [0u64; 3];
    for (o, s) in origins.iter().zip(&shapes) {
        for d in 0..3 {
            container[d] = container[d].max(o[d] + s[d]);
        }
    }
    let mut arcs = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if origins[u][2] + shapes[u][2] <= origins[v][2] && rng.percent(30) {
                arcs.push((u, v));
            }
        }
    }
    let (instance, order) = assemble(rng, &shapes, &arcs, container);
    let witness = order.iter().map(|&i| origins[i]).collect();
    Case {
        instance,
        truth: Truth::Feasible,
        witness: Some(witness),
    }
}

/// An infeasible instance: tasks from a module library are added until
/// their total volume exceeds the `side × side × horizon` container's, so
/// no packing exists, while each task still fits the container alone.
pub fn overflowing(rng: &mut Rng, side: u64, horizon: u64, kinds: usize) -> Case {
    let max_side = (side / 2).max(1);
    let library = module_library(rng, kinds, max_side, horizon);
    let capacity = side * side * horizon;
    let mut shapes: Vec<Shape> = Vec::new();
    let mut volume = 0;
    while volume <= capacity {
        let shape = library[rng.index(kinds)];
        volume += shape[0] * shape[1] * shape[2];
        shapes.push(shape);
    }
    let (instance, _) = assemble(rng, &shapes, &[], [side, side, horizon]);
    Case {
        instance,
        truth: Truth::Infeasible,
        witness: None,
    }
}

/// `quads` full-height 2×2×2 modules and `units` one-cycle 2×2×1 modules
/// on a 4×4 chip over 2 cycles. The chip holds four 2×2 footprints per
/// cycle, so `2 * quads + units > 8` makes the instance infeasible by
/// construction, yet no module is too large on its own and the search must
/// try the arrangements to prove it.
pub fn quads_and_units(rng: &mut Rng, quads: usize, units: usize) -> Case {
    assert!(2 * quads + units > 8, "the modules must overflow the chip");
    let shapes: Vec<Shape> = std::iter::repeat_n([2, 2, 2], quads)
        .chain(std::iter::repeat_n([2, 2, 1], units))
        .collect();
    let (instance, _) = assemble(rng, &shapes, &[], [4, 4, 2]);
    Case {
        instance,
        truth: Truth::Infeasible,
        witness: None,
    }
}

/// The same instance with its tasks in a seeded random order under fresh
/// names; precedence and container carry over.
pub fn relabel(rng: &mut Rng, instance: &Instance) -> Instance {
    let shapes: Vec<Shape> = instance
        .tasks()
        .iter()
        .map(|t| [t.width(), t.height(), t.duration()])
        .collect();
    let arcs: Vec<(usize, usize)> = instance.precedence().arcs().collect();
    assemble(rng, &shapes, &arcs, instance.container()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_placement;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 1);
            vec![
                volume_tight(&mut rng, 9).instance,
                library_tight(&mut rng, 10).instance,
                witnessed(&mut rng, 11, 4, 4).instance,
                overflowing(&mut rng, 4, 3, 3).instance,
                quads_and_units(&mut rng, 4, 3).instance,
            ]
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(5, 2).next_u64());
    }

    #[test]
    fn every_witness_verifies() {
        let mut rng = Rng::new(11, 0);
        for n in 1..40 {
            let case = witnessed(&mut rng, n % 13 + 1, 1 + n as u64 % 5, 1 + n as u64 % 4);
            assert_eq!(case.truth, Truth::Feasible);
            let witness = case.witness.expect("witnessed cases carry one");
            assert_eq!(check_placement(&case.instance, &witness), Ok(()));
        }
    }

    #[test]
    fn overflowing_cases_exceed_their_container() {
        let mut rng = Rng::new(3, 0);
        for _ in 0..20 {
            let case = overflowing(&mut rng, 4, 2, 3);
            let i = &case.instance;
            let capacity: u64 = i.container().iter().product();
            assert!(i.total_volume() > capacity);
            assert!(i
                .tasks()
                .iter()
                .all(|t| t.width() <= 4 && t.height() <= 4 && t.duration() <= 2));
        }
    }

    #[test]
    fn quads_and_units_overflow_the_chip() {
        let case = quads_and_units(&mut Rng::new(1, 0), 3, 4);
        assert_eq!(case.instance.container(), [4, 4, 2]);
        assert_eq!(case.instance.task_count(), 7);
        assert!(case.instance.total_volume() > 4 * 4 * 2);
        assert_eq!(case.truth, Truth::Infeasible);
    }

    #[test]
    fn relabelling_keeps_shapes_arcs_and_container() {
        let mut rng = Rng::new(9, 0);
        let original = recopack_model::benchmarks::de(Chip::square(32), 6);
        let relabelled = relabel(&mut rng, &original);
        let mut a: Vec<Shape> = original
            .tasks()
            .iter()
            .map(|t| [t.width(), t.height(), t.duration()])
            .collect();
        let mut b: Vec<Shape> = relabelled
            .tasks()
            .iter()
            .map(|t| [t.width(), t.height(), t.duration()])
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(original.container(), relabelled.container());
        assert_eq!(
            original.critical_path_length(),
            relabelled.critical_path_length()
        );
        assert!(relabelled.tasks().iter().all(|t| t.name().starts_with('m')));
    }

    #[test]
    fn ranges_are_inclusive_and_bounded() {
        let mut rng = Rng::new(1, 0);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let v = rng.range(2, 5);
            assert!((2..=5).contains(&v));
            seen[(v - 2) as usize] = true;
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert!(seen.iter().all(|&s| s));
    }
}
