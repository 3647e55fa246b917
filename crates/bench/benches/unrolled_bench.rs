//! The Table III(a) unrolled-speedup column, measured as a Criterion
//! benchmark: the 1-thread batch solve over a 64-tensor subset of the
//! paper workload shape, swept across every CPU kernel strategy.
//! (The full 1024-tensor run lives in the `table3` binary; this keeps
//! Criterion iterations tractable.)

use backend::{Cpu, KernelStrategy};
use bench::{bench_policy, run_on, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_batch(c: &mut Criterion) {
    let workload = Workload::random(64, 32, 4, 3, 5);

    let mut group = c.benchmark_group("batch_64tensors_32starts");
    group.sample_size(10);
    for strategy in KernelStrategy::ALL {
        let cpu = Cpu::new(1, strategy);
        group.bench_function(strategy.name(), |b| {
            b.iter(|| black_box(run_on(&cpu, &workload, bench_policy(), 0.0)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
