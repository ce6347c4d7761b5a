//! End-to-end training-step bench: one forward + backward pass of a
//! CIFAR-scale DenseNet, executed numerically at every CPU-measured fusion
//! level (Baseline, RCF, RCF+MVF, BNFF).
//!
//! This measures the real arithmetic on the host CPU (the analytical model
//! handles the paper-scale projection); it demonstrates that the fused
//! executor path is functional and not slower than the baseline at equal
//! arithmetic.
//!
//! Every level runs through the tape-walking executor twice: pinned to one
//! worker (`serial`) and with the machine's full worker count (`parallel`,
//! i.e. whatever `BNFF_THREADS` resolves to), so the multi-core speedup of
//! the kernel subsystem is *measured* by the same harness that measures the
//! fusion win.

use bnff_bench::{level_bench_name, training_step_executors};
use bnff_parallel::{current_threads, with_threads};
use bnff_tensor::init::Initializer;
use bnff_tensor::Shape;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_training_step(c: &mut Criterion) {
    let batch = 8;
    let execs = training_step_executors(batch, 3).unwrap();
    let mut init = Initializer::seeded(5);
    let data = init.uniform(Shape::nchw(batch, 3, 32, 32), -1.0, 1.0);
    let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();
    let full_threads = current_threads();

    let mut group = c.benchmark_group("training_step_densenet_cifar");
    for (level, exec) in &execs {
        let name = level_bench_name(*level);
        for (threads, suffix) in [(1usize, "serial"), (full_threads, "parallel")] {
            group.bench_function(format!("{name}_graph_{suffix}_t{threads}"), |b| {
                b.iter(|| {
                    with_threads(threads, || {
                        let fwd = exec.forward(black_box(&data), &labels).unwrap();
                        black_box(exec.backward(&fwd).unwrap())
                    })
                })
            });
        }
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_training_step
}
criterion_main!(benches);
