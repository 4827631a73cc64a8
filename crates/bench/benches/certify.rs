//! The incremental-certification headline numbers, emitted as
//! machine-readable JSON (`BENCH_certify.json` at the repo root) so CI
//! and the README table can track the certification overhead.
//!
//! Two families, each at three input sizes:
//!
//! * lexing (arith text, 1 KiB / 64 KiB / 1 MiB): the raw maximal-munch
//!   driver, the incremental certifier (running span cursor + a walk
//!   over the rule's eager derivative table per munch boundary), and the
//!   full post-hoc re-validation pass it replaced;
//! * LR parsing (Dyck, 1 Ki / 64 Ki / 1 Mi symbols): bare recognition,
//!   the certified parse (reduction log with per-step certification),
//!   and the blind parse finished by materializing the tree and running
//!   the whole-tree `validate`.
//!
//! Each family runs in its own child process
//! ([`lambek_bench::run_sections`]), so the LR family never measures
//! on the heap the lexing workload fragmented.

use lambek_automata::gen::random_dyck;
use lambek_bench::{row, run_sections, time};
use lambek_cfg::dyck::{dyck_cfg, Parens};
use lambek_lex::demo::{arith_spec, arith_text};
use lambek_lex::CertifiedLexer;
use lambek_lr::CertifiedLrParser;

fn lex_section() -> Vec<String> {
    let lexer = CertifiedLexer::compile(arith_spec()).unwrap();
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
    run_sections("certify", &[("lex", lex_section), ("lr_dyck", lr_section)]);
}
