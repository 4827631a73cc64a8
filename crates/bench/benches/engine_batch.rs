//! Serving-engine benchmarks: compile-once cache amortization and batch
//! fan-out over the engine's worker pool.
//!
//! Expected shape: `get_cached` is nanoseconds against a multi-millisecond
//! `compile`, and `parse_many` scales with workers until tree building
//! saturates memory bandwidth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lambek_automata::gen::random_dyck;
use lambek_core::alphabet::GString;
use lambek_engine::{Engine, PipelineSpec};

fn bench(c: &mut Criterion) {
    let spec = PipelineSpec::dyck(64);

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);

    group.bench_function("compile_dyck64", |b| b.iter(|| spec.compile().unwrap()));

    let engine = Engine::new();
    engine.get_or_compile(&spec).unwrap();
    group.bench_function("get_cached", |b| {
        b.iter(|| engine.get_or_compile(&spec).unwrap())
    });

    let inputs: Vec<GString> = (0..256).map(|i| random_dyck(16, i as u64)).collect();
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parse_many_256x32", workers),
            &workers,
            |b, &workers| b.iter(|| engine.parse_many(&spec, &inputs, workers).unwrap()),
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
