//! Propagation-cascade throughput (DESIGN.md, "Incremental
//! propagation"): a ~10⁵-node infeasibility proof and the ledger's `quad6`
//! case, timed through the search alone. That the per-node path stays
//! allocation-free in steady state is `tests/allocations.rs`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use recopack_core::{Opp, SolverConfig};
use recopack_model::{Chip, Instance, Task};

use recopack_bench::search_only;

fn config() -> SolverConfig {
    SolverConfig {
        threads: 1,
        ..search_only()
    }
}

/// The volume-tight infeasible workload of `parallel_scaling.rs` (seed
/// 4243): seven random tasks whose exhaustive refutation takes a ~10⁵-node
/// tree with zero accepted leaves — a pure sample of the per-node path.
fn cascade_workload() -> Instance {
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

/// The ledger's `quad6` case (`tests/search_regressions.rs`): a shorter
/// exhaustive proof for the throughput group.
fn quad_workload() -> Instance {
    let mut builder = Instance::builder().chip(Chip::square(4)).horizon(2);
    for i in 0..6 {
        builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
    }
    builder
        .build()
        .expect("structurally valid")
        .with_transitive_closure()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cascade");
    group.sample_size(10);
    for (label, instance) in [
        ("infeasibility_proof", cascade_workload()),
        ("quad6", quad_workload()),
    ] {
        group.bench_function(format!("{label}/threads1"), |b| {
            b.iter_batched(
                || instance.clone(),
                |i| Opp::new(&i).with_config(config()).solve(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
