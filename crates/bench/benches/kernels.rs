//! Microbenchmarks for the wide-word bitset kernels (DESIGN.md,
//! "Wide-word kernels").
//!
//! Each group pits a fused kernel against the multi-pass composition it
//! replaced in the hot paths: `intersect_into` vs clone-plus-intersect,
//! and `majority_into` vs the six-pass C4 candidate build. The `sanity`
//! preamble checks that each fused kernel agrees with its composition, and
//! uses a counting global allocator to prove the inline-storage claim:
//! constructing, cloning, and running kernels on capacity-256 sets
//! performs **zero** heap allocations — the property that makes
//! `PackingState` clone cheap on the work-stealing donate path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recopack_graph::BitSet;

/// [`System`] with a global allocation counter (same spot-check idiom as
/// the cascade bench).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic pseudo-random set (xorshift; no dependency on rand's
/// distributions for a plain bit pattern).
fn random_set(capacity: usize, mut seed: u64, density_num: u64, density_den: u64) -> BitSet {
    let mut s = BitSet::new(capacity);
    for v in 0..capacity {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        if seed % density_den < density_num {
            s.insert(v);
        }
    }
    s
}

/// Inline-storage spot check: capacity ≤ 256 sets must never touch the
/// heap — not on construction, not on clone, not in any kernel. The fused
/// kernels must also agree with the compositions their groups time.
fn sanity() {
    let a = random_set(256, 0xA5A5_A5A5, 1, 2);
    let b = random_set(256, 0x5A5A_5A5A, 1, 2);
    let c = random_set(256, 0xDEAD_BEEF, 1, 3);

    let before = ALLOCS.load(Ordering::Relaxed);
    let built = BitSet::new(256);
    let cloned = a.clone();
    let mut and = BitSet::new(256);
    and.intersect_into(&a, &b);
    let mut majority = BitSet::new(256);
    majority.majority_into(&a, &b, &c);
    let mut dst = BitSet::new(256);
    dst.intersect2_union_into(&a, &b, &c, &cloned);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;

    assert!(built.is_empty() && !cloned.is_empty());
    let mut composed = a.clone();
    composed.intersect_with(&b);
    assert_eq!(
        and, composed,
        "intersect_into disagrees with its composition"
    );
    let mut pair = a.clone();
    pair.intersect_with(&c);
    composed.union_with(&pair);
    pair.copy_from(&b);
    pair.intersect_with(&c);
    composed.union_with(&pair);
    assert_eq!(
        majority, composed,
        "majority_into disagrees with its composition"
    );
    assert_eq!(
        delta, 0,
        "inline-storage sets (capacity 256) allocated {delta} times"
    );
    println!("inline-storage spot check: 0 heap allocations at capacity 256");
}

fn bench(c: &mut Criterion) {
    sanity();
    // 192 vertices: three of four words per block live, matching the large
    // end of the solver's component graphs while exercising tail masking.
    let n = 192;
    let a = random_set(n, 17, 1, 2);
    let b = random_set(n, 23, 1, 2);
    let r3 = random_set(n, 31, 1, 3);

    let mut group = c.benchmark_group("kernels");
    group.sample_size(50);

    let mut dst = BitSet::new(n);
    group.bench_function("intersect_into/fused", |bch| {
        bch.iter(|| {
            dst.intersect_into(black_box(&a), black_box(&b));
            dst.len()
        })
    });
    group.bench_function("intersect_into/clone_plus_intersect", |bch| {
        bch.iter(|| {
            let mut t = black_box(&a).clone();
            t.intersect_with(black_box(&b));
            t.len()
        })
    });

    let mut acc = BitSet::new(n);
    let mut tmp = BitSet::new(n);
    group.bench_function("c4_candidates/majority_fused", |bch| {
        bch.iter(|| {
            acc.majority_into(black_box(&a), black_box(&b), black_box(&r3));
            acc.len()
        })
    });
    group.bench_function("c4_candidates/six_pass", |bch| {
        bch.iter(|| {
            acc.copy_from(black_box(&a));
            acc.intersect_with(black_box(&b));
            tmp.copy_from(black_box(&a));
            tmp.intersect_with(black_box(&r3));
            acc.union_with(&tmp);
            tmp.copy_from(black_box(&b));
            tmp.intersect_with(black_box(&r3));
            acc.union_with(&tmp);
            acc.len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
