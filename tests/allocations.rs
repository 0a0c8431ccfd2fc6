//! Heap-allocation gates on the solver's hot paths. A counting global
//! allocator counts per thread, so tests running at the same time cannot
//! pollute each other's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use recopack::graph::BitSet;
use recopack::model::{Chip, Instance, Task};
use recopack::solver::{Opp, SolveOutcome, SolverConfig};

thread_local! {
    /// Allocations and reallocations made by this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] with a per-thread allocation count.
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`. The count is a thread-local
// `Cell` with a const initializer and no destructor, so touching it
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A deterministic pseudo-random set (xorshift) holding about one element
/// in `den`.
fn pattern(capacity: usize, mut seed: u64, den: u64) -> BitSet {
    let mut set = BitSet::new(capacity);
    for v in 0..capacity {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        if seed.is_multiple_of(den) {
            set.insert(v);
        }
    }
    set
}

/// Sets of capacity up to 256 live inline: building, cloning and running
/// the fused kernels never touch the heap. That keeps a `PackingState`
/// clone a plain copy on the work-stealing donate path.
#[test]
fn inline_bitsets_never_allocate() {
    let a = pattern(256, 0xA5A5_A5A5, 2);
    let b = pattern(256, 0x5A5A_5A5A, 2);
    let c = pattern(256, 0xDEAD_BEEF, 3);

    let before = allocations();
    let built = BitSet::new(256);
    let cloned = a.clone();
    let mut and = BitSet::new(256);
    and.intersect_into(&a, &b);
    let mut majority = BitSet::new(256);
    majority.majority_into(&a, &b, &c);
    let mut dst = BitSet::new(256);
    dst.intersect2_union_into(&a, &b, &c, &cloned);
    let delta = allocations() - before;

    assert!(built.is_empty() && !cloned.is_empty() && !and.is_empty());
    assert!(!majority.is_empty() && !dst.is_empty());
    assert_eq!(delta, 0, "capacity-256 sets allocated {delta} times");
}

/// Seven random modules whose refutation takes a ~10⁵-node tree with no
/// accepted leaf: a pure sample of the per-node search path.
fn infeasibility_proof() -> Instance {
    let mut rng = StdRng::seed_from_u64(4243);
    let mut volume = 0u64;
    let mut tasks = Vec::new();
    for k in 0..7 {
        let w = rng.gen_range(2..=3u64);
        let h = rng.gen_range(2..=3u64);
        let d = rng.gen_range(1..=3u64);
        volume += w * h * d;
        tasks.push(Task::new(format!("t{k}"), w, h, d));
    }
    Instance::builder()
        .chip(Chip::new(6, 6))
        .horizon(volume.div_ceil(36))
        .tasks(tasks)
        .build()
        .expect("valid instance")
}

/// The per-node path (branch, cascade, backtrack) reuses buffers the
/// worker owns: the event queue, the bitset scan buffers, the clique
/// workspace and the chain-label trail. So a long proof averages well
/// under one allocation per node once the process is warm; per-solve
/// setup is what remains.
#[test]
fn search_allocates_far_less_than_once_per_node() {
    let instance = infeasibility_proof();
    let config = SolverConfig {
        threads: 1,
        use_bounds: false,
        use_heuristics: false,
        ..SolverConfig::default()
    };
    let solve = || {
        Opp::new(&instance)
            .with_config(config.clone())
            .solve_with_stats()
    };
    // The first solve pays one-time process and capacity costs.
    assert!(matches!(solve().0, SolveOutcome::Infeasible(_)));

    let before = allocations();
    let (outcome, stats) = solve();
    let delta = allocations() - before;
    assert!(matches!(outcome, SolveOutcome::Infeasible(_)));
    assert!(
        stats.nodes > 50_000,
        "workload too small to amortize setup: {} nodes",
        stats.nodes
    );
    assert_eq!(stats.leaves, 0, "the proof must never reach realization");
    let per_node = delta as f64 / stats.nodes as f64;
    assert!(
        per_node < 0.1,
        "{delta} allocations over {} nodes ({per_node:.4} per node)",
        stats.nodes
    );
}
