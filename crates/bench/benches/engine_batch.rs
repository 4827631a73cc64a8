//! Serving-engine benchmarks: compile-once cache amortization and batch
//! fan-out over the engine's worker pool.
//!
//! Expected shape: `get_cached` is nanoseconds against a multi-millisecond
//! `compile`, and `parse_many` scales with workers until tree building
//! saturates memory bandwidth.

use lambek_automata::gen::random_dyck;
use lambek_bench::bench;
use lambek_core::alphabet::GString;
use lambek_engine::{Engine, PipelineSpec};

fn main() {
    let spec = PipelineSpec::dyck(64);

    bench("engine/compile_dyck64", || spec.compile().unwrap());

    let engine = Engine::new();
    engine.get_or_compile(&spec).unwrap();
    bench("engine/get_cached", || {
        engine.get_or_compile(&spec).unwrap()
    });

    let inputs: Vec<GString> = (0..256).map(|i| random_dyck(16, i as u64)).collect();
    for workers in [1usize, 2, 4, 8] {
        bench(&format!("engine/parse_many_256x32/{workers}"), || {
            engine.parse_many(&spec, &inputs, workers).unwrap()
        });
    }
}
