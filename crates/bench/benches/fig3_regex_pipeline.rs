//! F3/C4.12 — the running example `('a'* ⊗ 'b') ⊕ 'c'` parsed four ways,
//! over growing input length:
//!
//! * `derivative` — Brzozowski baseline (recognition only);
//! * `nfa_subset` — Thompson NFA subset simulation (recognition only);
//! * `dfa_run`    — the compiled DFA (recognition only);
//! * `verified_parse` — the full Corollary 4.12 pipeline *with* parse
//!   tree construction and intrinsic validation.
//!
//! Expected shape: all four are linear in the input; the DFA run is the
//! fastest recognizer, the derivative matcher the slowest; the verified
//! parse pays a constant-factor tree-building overhead.

use lambek_bench::bench;
use lambek_core::alphabet::{Alphabet, GString};
use regex_grammars::ast::parse_regex;
use regex_grammars::derivative::matches;
use regex_grammars::pipeline::RegexParser;
use regex_grammars::thompson::thompson_strong_equiv;

fn input(n: usize, sigma: &Alphabet) -> GString {
    // aⁿ⁻¹ b — accepted, exercising the star loop.
    sigma.parse_str(&format!("{}b", "a".repeat(n - 1))).unwrap()
}

fn main() {
    let sigma = Alphabet::abc();
    let re = parse_regex(&sigma, "(a*b)|c").unwrap();
    let (th, _) = thompson_strong_equiv(&sigma, &re);
    let parser = RegexParser::compile(&sigma, re.clone()).unwrap();

    for n in [8usize, 32, 128, 512] {
        let w = input(n, &sigma);
        bench(&format!("fig3_regex/derivative/{n}"), || matches(&re, &w));
        bench(&format!("fig3_regex/nfa_subset/{n}"), || {
            th.nfa().accepts(&w)
        });
        bench(&format!("fig3_regex/dfa_run/{n}"), || parser.accepts(&w));
        bench(&format!("fig3_regex/verified_parse/{n}"), || {
            parser.parse(&w).unwrap()
        });
    }
}
