//! C4.11 — Thompson's construction: time and NFA size versus regex size.
//!
//! Expected shape: both linear in the regex size (the construction adds
//! at most two states and four ε-transitions per node).

use lambek_bench::bench;
use lambek_core::alphabet::Alphabet;
use regex_grammars::gen::random_regex;
use regex_grammars::thompson::thompson;

fn main() {
    let sigma = Alphabet::abc();

    println!("thompson NFA size vs regex size:");
    for size in [8usize, 16, 32, 64, 128] {
        let re = random_regex(&sigma, size, 11);
        let th = thompson(&sigma, &re);
        println!(
            "  size={:>4} → {:>4} states, {:>4} ε-transitions (bound 2·size + 2 = {})",
            re.size(),
            th.nfa().num_states(),
            th.nfa().eps_transitions().len(),
            2 * re.size() + 2
        );
    }

    for size in [8usize, 32, 128, 512] {
        let re = random_regex(&sigma, size, 11);
        bench(&format!("c411_thompson/construct/{size}"), || {
            thompson(&sigma, &re)
        });
    }
}
