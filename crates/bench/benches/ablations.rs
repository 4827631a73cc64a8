//! Ablations for three design choices:
//!
//! * `chart_vs_topdown` — the memoized-chart recognizer versus the
//!   memo-free top-down recognizer on the running-example grammar
//!   (expect: top-down blows up combinatorially on longer inputs);
//! * `checked_vs_unchecked` — transformer application with and without
//!   dynamic intrinsic verification (expect: a constant factor);
//! * `minimize_before_traces` — building the Theorem 4.9 parser from the
//!   raw determinized DFA versus the minimized one (expect: smaller trace
//!   grammar, cheaper construction).

use lambek_automata::determinize::determinize;
use lambek_automata::gen::blowup_nfa;
use lambek_automata::minimize::minimize;
use lambek_automata::run::dfa_trace_parser;
use lambek_bench::bench;
use lambek_core::alphabet::Alphabet;
use lambek_core::grammar::compile::CompiledGrammar;
use lambek_core::grammar::recognize::recognizes_topdown;
use regex_grammars::ast::parse_regex;
use regex_grammars::thompson::thompson_strong_equiv;

fn main() {
    let sigma = Alphabet::abc();

    // (a) chart vs top-down recognition.
    let re = parse_regex(&sigma, "(a|b)*(ab|ba)*c").unwrap();
    let cg = CompiledGrammar::new(&re.to_grammar());
    for n in [4usize, 8, 12] {
        let w = sigma
            .parse_str(&format!("{}c", "ab".repeat(n / 2)))
            .unwrap();
        bench(&format!("ablate_recognizer/chart/{n}"), || {
            cg.recognizes(&w)
        });
        bench(&format!("ablate_recognizer/topdown/{n}"), || {
            recognizes_topdown(&cg, &w)
        });
    }

    // (b) checked vs unchecked transformer application.
    let re = parse_regex(&sigma, "(a*b)|c").unwrap();
    let (_, eq) = thompson_strong_equiv(&sigma, &re);
    let w = sigma.parse_str(&format!("{}b", "a".repeat(64))).unwrap();
    let tree = CompiledGrammar::new(&re.to_grammar())
        .parses(&w, 2)
        .trees
        .remove(0);
    bench("ablate_checking/apply_unchecked", || {
        eq.weak().fwd.apply(&tree).unwrap()
    });
    bench("ablate_checking/apply_checked", || {
        eq.weak().fwd.apply_checked(&tree).unwrap()
    });

    // (c) trace parser from raw vs minimized DFA.
    let nfa = blowup_nfa(6);
    let det = determinize(&nfa);
    let min = minimize(&det.dfa);
    println!(
        "ablate_minimize: raw DFA {} states vs minimized {} states",
        det.dfa.num_states(),
        min.num_states()
    );
    bench("ablate_minimize/trace_parser_raw", || {
        dfa_trace_parser(&det.dfa, det.dfa.init())
    });
    bench("ablate_minimize/trace_parser_minimized", || {
        dfa_trace_parser(&min, min.init())
    });
}
