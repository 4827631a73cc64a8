//! Observability overhead, emitted as machine-readable JSON
//! (`BENCH_obs.json` at the repo root): the same workloads driven
//! through an engine with observability fully enabled (`ObsConfig {
//! tracing: true, .. }` — per-request stage spans, trace ring, exact
//! request/token counters) and through a default engine with tracing
//! off, so the delta *is* the price of watching.
//!
//! Two serving paths, at 64 KiB and 1 MiB of arith text, each in its
//! own child process ([`lambek_bench::run_sections`]); the JSON's
//! `cores` field matters here because queue effects depend on it:
//!
//! * **fused** — a one-request `parse_many_str` batch: tracing runs
//!   the same fused lex→certify→LR call and wraps it in a `parse`
//!   span, so the delta is the cost of recording, the headline ≤ 3%
//!   acceptance row at 1 MiB;
//! * **parse_many** — a pooled batch of ~1 KiB requests over four
//!   workers: per-request traces, queue spans and counter updates all
//!   enabled at once.

use lambek_bench::{row, run_sections, sample};
use lambek_engine::{CacheConfig, Engine, ObsConfig, PipelineSpec};
use lambek_lex::demo::arith_text;

/// Times the disabled and enabled variants *interleaved* (eight sample
/// rounds, alternating which variant goes first) and returns each
/// variant's **minimum** sample. Two deliberate choices, both about
/// measuring a few-percent delta on a noisy shared host:
///
/// * interleaving — measuring one variant wholly after the other
///   systematically favors the second (warmed heap, hot pages), which
///   on a tracing-independent path showed up as a fictitious
///   double-digit "speedup";
/// * min, not median — for the reason [`lambek_bench::time`] gives:
///   comparing minima compares the code paths rather than the noise.
fn time_pair<A, B>(mut off: impl FnMut() -> A, mut on: impl FnMut() -> B) -> (f64, f64) {
    std::hint::black_box(off()); // warm-up, both variants
    std::hint::black_box(on());
    let (mut off_best, mut on_best) = (f64::INFINITY, f64::INFINITY);
    for round in 0..8 {
        if round % 2 == 0 {
            off_best = off_best.min(sample(&mut off));
            on_best = on_best.min(sample(&mut on));
        } else {
            on_best = on_best.min(sample(&mut on));
            off_best = off_best.min(sample(&mut off));
        }
    }
    (off_best, on_best)
}

/// A default engine (tracing off) and a fully-enabled one, both with
/// the spec pre-compiled so the rows measure serving, not compiling.
fn engine_pair(spec: &PipelineSpec) -> (Engine, Engine) {
    let off = Engine::new();
    let on = Engine::with_obs(
        CacheConfig::default(),
        ObsConfig {
            tracing: true,
            trace_ring: 32,
        },
    );
    off.get_or_compile(spec).expect("arith compiles");
    on.get_or_compile(spec).expect("arith compiles");
    (off, on)
}

fn delta_row(kib: usize, off_s: f64, on_s: f64, name: &str) -> String {
    let overhead = on_s / off_s - 1.0;
    eprintln!(
        "{name} {kib:>5} KiB: off {off_s:.3e}s  on {on_s:.3e}s  \
         overhead {:+.2}%",
        overhead * 100.0
    );
    row(&[
        ("bytes", (kib * 1024) as f64),
        ("off_s", off_s),
        ("on_s", on_s),
        ("overhead", overhead),
    ])
}

fn fused_section() -> Vec<String> {
    let spec = PipelineSpec::arith_lexed();
    let (off, on) = engine_pair(&spec);
    let mut rows = Vec::new();
    for kib in [64usize, 1024] {
        let text = arith_text(kib * 1024);
        let inputs = [text.as_str()];
        let (off_s, on_s) = time_pair(
            || {
                off.parse_many_str(&spec, &inputs, 1).unwrap()[0]
                    .outcome
                    .is_accept()
            },
            || {
                on.parse_many_str(&spec, &inputs, 1).unwrap()[0]
                    .outcome
                    .is_accept()
            },
        );
        rows.push(delta_row(kib, off_s, on_s, "fused     "));
    }
    rows
}

fn parse_many_section() -> Vec<String> {
    let spec = PipelineSpec::arith_lexed();
    let (off, on) = engine_pair(&spec);
    let mut rows = Vec::new();
    for kib in [64usize, 1024] {
        // kib requests of ~1 KiB each, so the batch totals the same
        // bytes as the single-request rows above.
        let docs: Vec<String> = (0..kib).map(|_| arith_text(1024)).collect();
        let inputs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let (off_s, on_s) = time_pair(
            || {
                off.parse_many_str(&spec, &inputs, 4)
                    .unwrap()
                    .iter()
                    .filter(|r| r.outcome.is_accept())
                    .count()
            },
            || {
                on.parse_many_str(&spec, &inputs, 4)
                    .unwrap()
                    .iter()
                    .filter(|r| r.outcome.is_accept())
                    .count()
            },
        );
        rows.push(delta_row(kib, off_s, on_s, "parse_many"));
    }
    rows
}

fn main() {
    run_sections(
        "obs",
        &[("fused", fused_section), ("parse_many", parse_many_section)],
    );
}
