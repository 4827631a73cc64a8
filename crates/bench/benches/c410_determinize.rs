//! C4.10 — Rabin–Scott determinization: time and state blow-up.
//!
//! Two series: random NFAs (mild growth) and the classic worst-case
//! family `(a|b)* a (a|b)^k`, whose minimal DFA needs `2^(k+1)` states.
//! The printed `k=…` rows record the measured blow-up shape.

use lambek_automata::determinize::determinize;
use lambek_automata::gen::{blowup_nfa, random_nfa};
use lambek_automata::minimize::minimize;
use lambek_bench::bench;
use lambek_core::alphabet::Alphabet;

fn main() {
    println!("determinization blow-up (worst-case family):");
    for k in 1..=8 {
        let nfa = blowup_nfa(k);
        let det = determinize(&nfa);
        let min = minimize(&det.dfa);
        println!(
            "  k={k}: NFA {} states → DFA {} states (minimized {}; 2^(k+1) = {})",
            nfa.num_states(),
            det.dfa.num_states(),
            min.num_states(),
            1 << (k + 1)
        );
    }

    for k in [4usize, 6, 8, 10] {
        let nfa = blowup_nfa(k);
        bench(&format!("c410_determinize/blowup_family/{k}"), || {
            determinize(&nfa)
        });
    }
    let sigma = Alphabet::abc();
    for n in [4usize, 8, 16, 32] {
        let nfa = random_nfa(&sigma, n, 1.5, 99);
        bench(&format!("c410_determinize/random_nfa/{n}"), || {
            determinize(&nfa)
        });
    }
}
