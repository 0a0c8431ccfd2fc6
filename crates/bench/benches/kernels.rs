//! Microbenchmarks for the wide-word bitset kernels (DESIGN.md,
//! "Wide-word kernels").
//!
//! Each group pits a fused kernel against the multi-pass composition it
//! replaced in the hot paths: `intersect_into` vs clone-plus-intersect,
//! and `majority_into` vs the six-pass C4 candidate build. That each fused
//! kernel agrees with its composition is a property test in
//! `crates/graph/tests/kernels.rs`; that capacity-256 sets never allocate
//! is `tests/allocations.rs`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recopack_graph::BitSet;

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

fn bench(c: &mut Criterion) {
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
