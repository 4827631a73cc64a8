//! The incremental-certification headline numbers, emitted as
//! machine-readable JSON (`BENCH_certify.json` at the repo root) so CI
//! and the README table can track the certification overhead.
//!
//! Two families, each at three input sizes:
//!
//! * lexing (arith text, 1 KiB / 64 KiB / 1 MiB): the raw maximal-munch
//!   driver, the incremental certifier (running span cursor + memoized
//!   derivative re-match per munch boundary), and the full post-hoc
//!   re-validation pass it replaced;
//! * LR parsing (Dyck, 1 Ki / 64 Ki / 1 Mi symbols): bare recognition,
//!   the certified parse (reduction log with per-step certification),
//!   and the blind parse finished by materializing the tree and running
//!   the whole-tree `validate`.
//!
//! Timing is hand-rolled (median of five samples) rather than Criterion
//! so the binary can write one flat JSON file without a report
//! directory. `CERTIFY_SAMPLE_MS` overrides the per-sample budget.
//!
//! Each family runs in its own child process (the binary re-execs
//! itself with `CERTIFY_SECTION` set): the lexing workload churns the
//! allocator with millions of short-lived tokens, and measuring the LR
//! family on that fragmented heap inflates its numbers by ~2.5× —
//! process isolation keeps every section on a fresh heap. Sections
//! print human-readable lines on stderr and their JSON rows on stdout.

use std::time::Instant;

use lambek_automata::gen::random_dyck;
use lambek_cfg::dyck::{dyck_cfg, Parens};
use lambek_lex::demo::{arith_spec, arith_text};
use lambek_lex::CertifiedLexer;
use lambek_lr::CertifiedLrParser;

/// Median seconds-per-iteration over five samples; each sample runs
/// iterations until the budget (default 20 ms) elapses.
fn time<R>(mut f: impl FnMut() -> R) -> f64 {
    let budget_ms: u128 = std::env::var("CERTIFY_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    std::hint::black_box(f()); // warm-up
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            std::hint::black_box(f());
            iters += 1;
            if start.elapsed().as_millis() >= budget_ms {
                break;
            }
        }
        samples.push(start.elapsed().as_secs_f64() / iters as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn row(pairs: &[(&str, f64)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.9}"))
        .collect();
    format!("    {{ {} }}", fields.join(", "))
}

fn lex_section() -> Vec<String> {
    let lexer = CertifiedLexer::compile(arith_spec());
    let auto = lexer.automaton().clone();
    let mut rows = Vec::new();
    for kib in [1usize, 64, 1024] {
        let text = arith_text(kib * 1024);
        let raw = time(|| auto.lex_raw(&text).unwrap().len());
        let incremental = time(|| lexer.lex(&text).unwrap().is_accept());
        let full = time(|| lexer.lex_full(&text).unwrap().is_accept());
        eprintln!(
            "lex {kib:>5} KiB: raw {raw:.3e}s  incremental {incremental:.3e}s \
             ({:.2}x)  full {full:.3e}s ({:.2}x)",
            incremental / raw,
            full / raw
        );
        rows.push(row(&[
            ("bytes", (kib * 1024) as f64),
            ("raw_s", raw),
            ("incremental_s", incremental),
            ("full_s", full),
            ("incremental_over_raw", incremental / raw),
            ("full_over_raw", full / raw),
        ]));
    }
    rows
}

fn lr_section() -> Vec<String> {
    let p = Parens::new();
    let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).expect("Dyck is LALR(1)");
    let mut rows = Vec::new();
    for n in [1usize << 10, 1 << 16, 1 << 20] {
        let w = random_dyck(n / 2, n as u64);
        let recognize = time(|| parser.recognizes(&w));
        let incremental = time(|| parser.parse(&w).unwrap().is_accept());
        let full = time(|| parser.parse_full(&w).unwrap().is_accept());
        eprintln!(
            "lr  {n:>7} sym: recognize {recognize:.3e}s  \
             parse+cert {incremental:.3e}s ({:.2}x of recognize)  \
             parse+full {full:.3e}s ({:.2}x of recognize)",
            incremental / recognize,
            full / recognize
        );
        rows.push(row(&[
            ("symbols", n as f64),
            ("recognize_s", recognize),
            ("parse_incremental_s", incremental),
            ("parse_full_s", full),
            ("incremental_over_recognize", incremental / recognize),
            ("full_over_recognize", full / recognize),
        ]));
    }
    rows
}

fn main() {
    match std::env::var("CERTIFY_SECTION").as_deref() {
        Ok("lex") => print!("{}", lex_section().join(",\n")),
        Ok("lr") => print!("{}", lr_section().join(",\n")),
        _ => {
            let exe = std::env::current_exe().expect("own executable path");
            let section = |name: &str| {
                let out = std::process::Command::new(&exe)
                    .env("CERTIFY_SECTION", name)
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .unwrap_or_else(|e| panic!("spawn {name} section: {e}"));
                assert!(out.status.success(), "{name} section failed");
                String::from_utf8(out.stdout).expect("section rows are UTF-8")
            };
            let lex = section("lex");
            let lr = section("lr");
            let json = format!("{{\n  \"lex\": [\n{lex}\n  ],\n  \"lr_dyck\": [\n{lr}\n  ]\n}}\n");
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_certify.json");
            std::fs::write(path, json).expect("write BENCH_certify.json");
            println!("wrote {path}");
        }
    }
}
