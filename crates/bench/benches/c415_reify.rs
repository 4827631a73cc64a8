//! C4.15 — Turing reification: building `Reify(aⁿbⁿcⁿ)` up to a length
//! bound, and membership through the reified grammar versus running the
//! machine directly.
//!
//! Expected shape: construction cost is dominated by enumerating all
//! `|Σ|^ℓ` strings (exponential in the bound — the price of truncating an
//! infinite sum); membership through the machine is quadratic in the
//! input (marker passes), through the compiled reified grammar it
//! reflects chart recognition.

use lambek_bench::bench;
use lambek_core::grammar::compile::CompiledGrammar;
use lambek_turing::machine::anbncn_machine;
use lambek_turing::reify::reify_machine;

const FUEL: usize = 100_000;

fn main() {
    let tm = anbncn_machine();
    let sigma = tm.input_alphabet().clone();

    for max_len in [3usize, 6, 9] {
        bench(&format!("c415_reify/construct/{max_len}"), || {
            reify_machine(&tm, FUEL, max_len)
        });
    }

    let reified = reify_machine(&tm, FUEL, 9);
    let cg = CompiledGrammar::new(&reified.grammar);
    for n in [1usize, 2, 3] {
        let w = sigma
            .parse_str(&format!(
                "{}{}{}",
                "a".repeat(n),
                "b".repeat(n),
                "c".repeat(n)
            ))
            .unwrap();
        bench(&format!("c415_reify/machine_accepts/{}", 3 * n), || {
            tm.accepts(&w, FUEL)
        });
        bench(&format!("c415_reify/grammar_recognizes/{}", 3 * n), || {
            cg.recognizes(&w)
        });
    }
}
