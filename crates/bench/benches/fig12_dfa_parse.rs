//! F12/T4.9 — `parseD`/`printD` over growing inputs on a random DFA.
//!
//! Expected shape: both are linear in the input length; `printD` is a
//! cheap forward walk of the trace. The `run_dense` / `run_hashmap`
//! pair isolates the transition-table representation: the dense flat
//! `Vec` table against a hash-probed `HashMap<(state, sym), state>`
//! reference, on identical automata and inputs.

use std::collections::HashMap;

use lambek_automata::dfa::{parse_dfa, print_dfa, Dfa};
use lambek_automata::gen::{random_dfa, random_string};
use lambek_bench::bench;
use lambek_core::alphabet::{Alphabet, GString, Symbol};

/// Hash-probed transition table: the representation the dense flat table
/// replaced.
fn hashmap_table(dfa: &Dfa) -> HashMap<(usize, Symbol), usize> {
    let mut table = HashMap::new();
    for s in 0..dfa.num_states() {
        for c in dfa.alphabet().symbols() {
            table.insert((s, c), dfa.delta(s, c));
        }
    }
    table
}

fn run_hashmap(table: &HashMap<(usize, Symbol), usize>, start: usize, w: &GString) -> usize {
    let mut s = start;
    for sym in w.iter() {
        s = table[&(s, sym)];
    }
    s
}

fn main() {
    let sigma = Alphabet::abc();
    let dfa = random_dfa(&sigma, 8, 7);
    let tg = dfa.trace_grammar();
    let table = hashmap_table(&dfa);

    for n in [16usize, 64, 256, 1024] {
        let w = random_string(&sigma, n, n as u64);
        bench(&format!("fig12_parseD/parseD/{n}"), || {
            parse_dfa(&dfa, &tg, dfa.init(), &w)
        });
        let (bit, trace) = parse_dfa(&dfa, &tg, dfa.init(), &w);
        bench(&format!("fig12_parseD/printD/{n}"), || {
            print_dfa(&dfa, &tg, dfa.init(), bit, &trace)
        });
        bench(&format!("fig12_parseD/run_dense/{n}"), || {
            dfa.final_state(dfa.init(), &w)
        });
        bench(&format!("fig12_parseD/run_hashmap/{n}"), || {
            run_hashmap(&table, dfa.init(), &w)
        });
    }
}
