//! The lexer hot-loop throughput numbers, emitted as machine-readable
//! JSON (`BENCH_lex_hot.json` at the repo root) so CI and the README
//! table can track the byte-sliced and fused speedups.
//!
//! Two families, each at three input sizes (arith text,
//! 1 KiB / 64 KiB / 1 MiB), each in its own child process
//! ([`lambek_bench::run_sections`]):
//!
//! * **scan** — the raw maximal-munch driver: the charwise reference
//!   loop, the byte-sliced token materializer, and the allocation-free
//!   spans-only iterator (the true hot-loop floor);
//! * **e2e** — certified text→tree: the fused lex→LR `parse_str`
//!   (no token materialization), the materializing
//!   `parse_str_tokens`, and the post-hoc `parse_str_full` pass.

use lambek_bench::{row, run_sections, time};
use lambek_engine::PipelineSpec;
use lambek_lex::demo::{arith_spec, arith_text};
use lambek_lex::CertifiedLexer;

const GIB: f64 = (1u64 << 30) as f64;

fn scan_section() -> Vec<String> {
    let lexer = CertifiedLexer::compile(arith_spec()).unwrap();
    let auto = lexer.automaton().clone();
    let mut rows = Vec::new();
    for kib in [1usize, 64, 1024] {
        let text = arith_text(kib * 1024);
        let bytes = text.len() as f64;
        let charwise = time(|| auto.lex_raw_charwise(&text).unwrap().len());
        let tokens = time(|| auto.lex_raw(&text).unwrap().len());
        let spans = time(|| {
            let mut n = 0usize;
            for item in auto.raw_lexemes(&text) {
                n += item.unwrap().span.len();
            }
            n
        });
        eprintln!(
            "scan {kib:>5} KiB: charwise {charwise:.3e}s  byte-sliced {tokens:.3e}s \
             ({:.2}x)  spans-only {spans:.3e}s ({:.2}x, {:.2} GiB/s)",
            charwise / tokens,
            charwise / spans,
            bytes / spans / GIB
        );
        rows.push(row(&[
            ("bytes", bytes),
            ("charwise_s", charwise),
            ("byte_sliced_s", tokens),
            ("spans_only_s", spans),
            ("byte_sliced_speedup", charwise / tokens),
            ("spans_only_speedup", charwise / spans),
            ("spans_gib_per_s", bytes / spans / GIB),
        ]));
    }
    rows
}

fn e2e_section() -> Vec<String> {
    let pipeline = PipelineSpec::arith_lexed()
        .compile()
        .expect("arith compiles");
    let backend = pipeline.lexed_backend().expect("arith is lexed");
    let mut rows = Vec::new();
    for kib in [1usize, 64, 1024] {
        let text = arith_text(kib * 1024);
        let fused = time(|| pipeline.parse_str(&text).unwrap().is_accept());
        let materialized = time(|| backend.parse_str_tokens(&text).unwrap().is_accept());
        let full = time(|| backend.parse_str_full(&text).unwrap().is_accept());
        eprintln!(
            "e2e  {kib:>5} KiB: fused {fused:.3e}s  materialized {materialized:.3e}s \
             ({:.2}x of fused)  full {full:.3e}s ({:.2}x of fused)",
            materialized / fused,
            full / fused
        );
        rows.push(row(&[
            ("bytes", (kib * 1024) as f64),
            ("fused_s", fused),
            ("materialized_s", materialized),
            ("full_s", full),
            ("fused_speedup_over_materialized", materialized / fused),
            ("fused_speedup_over_full", full / fused),
        ]));
    }
    rows
}

fn main() {
    run_sections("lex_hot", &[("scan", scan_section), ("e2e", e2e_section)]);
}
