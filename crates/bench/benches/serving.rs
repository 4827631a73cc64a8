//! Serving-tier headline numbers, emitted as machine-readable JSON
//! (`BENCH_serving.json` at the repo root):
//!
//! * batch throughput on a 4 KiB arith workload through the engine's
//!   persistent worker pool ([`Engine::parse_many_str`]) split into N
//!   shards, vs the same batch served sequentially on the calling thread
//!   (`workers = 1`). `parse_many_str`'s `workers` argument only caps
//!   the shard count: the pool itself has one pinned thread per allowed
//!   CPU, recorded per row as `pool_workers`, so the speedup is bounded
//!   by that, not by the shard count;
//! * cache latency asymmetry: a hit on a resident pipeline vs the
//!   evict-and-recompile path a thrashing working set pays, plus the
//!   single-lookup hit latency the cost-weighted policy protects.

use lambek_bench::{row, run_sections, time};
use lambek_engine::{CacheConfig, Engine, PipelineSpec};
use lambek_lex::demo::arith_text;

/// Pool batch throughput on 4 KiB arith documents, N shards on the
/// engine's pool vs one worker (the calling thread).
fn pool_section() -> Vec<String> {
    let engine = Engine::new();
    let spec = PipelineSpec::arith_lexed();
    engine.get_or_compile(&spec).expect("arith compiles");
    let doc = arith_text(4096);
    let serve = |inputs: &[&str], shards: usize| {
        engine
            .parse_many_str(&spec, inputs, shards)
            .expect("cached")
            .len()
    };
    let mut rows = Vec::new();
    for (batch, shards) in [(8usize, 4usize), (32, 4), (32, 8)] {
        let inputs: Vec<&str> = (0..batch).map(|_| doc.as_str()).collect();
        let one = time(|| serve(&inputs, 1));
        let pool = time(|| serve(&inputs, shards));
        let pool_workers = engine.engine_stats().pool.workers;
        let bytes = (batch * doc.len()) as f64;
        eprintln!(
            "batch {batch:>3} x 4 KiB, {shards} shards on {pool_workers} pool workers: \
             one {one:.3e}s  pool {pool:.3e}s  ({:.2}x, pool {:.1} MiB/s)",
            one / pool,
            bytes / pool / (1024.0 * 1024.0),
        );
        rows.push(row(&[
            ("batch", batch as f64),
            ("shards", shards as f64),
            ("pool_workers", pool_workers as f64),
            ("bytes_per_input", doc.len() as f64),
            ("one_worker_s", one),
            ("pool_s", pool),
            ("speedup", one / pool),
            ("pool_bytes_per_s", bytes / pool),
        ]));
    }
    rows
}

/// Cache hit latency vs the evict-and-recompile path, under a capacity
/// deliberately below the working set.
fn cache_section() -> Vec<String> {
    // Capacity 2, working set 3: every round-robin lookup beyond the
    // second evicts the least-credited entry and recompiles.
    let thrashing = Engine::with_config(CacheConfig {
        max_entries: 2,
        max_weight: std::time::Duration::from_secs(3600),
    });
    let specs = [
        PipelineSpec::arith_lexed(),
        PipelineSpec::json_lexed(),
        PipelineSpec::expr_cfg(),
    ];
    let mut next = 0usize;
    let recompile = time(|| {
        let p = thrashing
            .get_or_compile(&specs[next % 3])
            .expect("compiles");
        next += 1;
        std::sync::Arc::strong_count(&p)
    });

    let resident = Engine::new();
    resident.get_or_compile(&specs[0]).expect("compiles");
    let hit =
        time(|| std::sync::Arc::strong_count(&resident.get_or_compile(&specs[0]).expect("cached")));

    let stats = thrashing.engine_stats();
    eprintln!(
        "cache: hit {hit:.3e}s  evict+recompile {recompile:.3e}s ({:.0}x); \
         {} evictions, slowest compile {:.3e}s",
        recompile / hit,
        stats.evictions,
        stats.compile_max.as_secs_f64(),
    );
    vec![row(&[
        ("hit_s", hit),
        ("evict_recompile_s", recompile),
        ("recompile_over_hit", recompile / hit),
        ("evictions", stats.evictions as f64),
        ("compile_max_s", stats.compile_max.as_secs_f64()),
        ("compile_total_s", stats.compile_total.as_secs_f64()),
    ])]
}

fn main() {
    run_sections(
        "serving",
        &[("pool_one_vs_n", pool_section), ("cache", cache_section)],
    );
}
