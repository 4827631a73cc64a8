//! F13/F14/T4.13 — parsing the Dyck language four ways over growing
//! balanced inputs:
//!
//! * `counter_machine` — Fig. 14's automaton, recognition only;
//! * `verified_parse`  — the Theorem 4.13 parser (trace + Dyck tree);
//! * `recursive_descent` — direct unique-derivation construction;
//! * `earley` — the general CFG baseline.
//!
//! Expected shape: machine/descent linear, verified parse linear with a
//! constant factor, Earley super-linear (its item sets grow with
//! nesting) — the automaton-based pipeline wins, as the paper's design
//! intends.

use lambek_automata::counter::CounterMachine;
use lambek_automata::gen::random_dyck;
use lambek_bench::bench;
use lambek_cfg::dyck::{dyck_cfg, dyck_parser, parse_dyck_string, Parens};
use lambek_cfg::earley::earley_recognize;

fn main() {
    let p = Parens::new();
    let machine = CounterMachine::new();
    let cfg = dyck_cfg(&p);

    for pairs in [8usize, 32, 128] {
        let w = random_dyck(pairs, pairs as u64);
        let parser = dyck_parser(w.len());
        bench(&format!("fig14_dyck/counter_machine/{pairs}"), || {
            machine.accepts(&w)
        });
        bench(&format!("fig14_dyck/verified_parse/{pairs}"), || {
            parser.parse(&w).unwrap()
        });
        bench(&format!("fig14_dyck/recursive_descent/{pairs}"), || {
            parse_dyck_string(&p, &w).unwrap()
        });
        bench(&format!("fig14_dyck/earley/{pairs}"), || {
            earley_recognize(&cfg, &w)
        });
    }
}
