//! F15/T4.14 — parsing arithmetic expressions with the lookahead
//! automaton versus the Earley baseline, over growing expressions.
//!
//! Expected shape: the LL(1) machine and the verified parser are linear;
//! Earley is super-linear. The verified parser's constant factor is the
//! price of building the trace plus the `Exp` tree.

use lambek_automata::gen::random_arith;
use lambek_automata::lookahead::{simulate, ArithTokens};
use lambek_bench::bench;
use lambek_cfg::earley::earley_recognize;
use lambek_cfg::expr::{exp_cfg, exp_parser, parse_exp_string};

fn main() {
    let t = ArithTokens::new();
    let cfg = exp_cfg(&t);

    for atoms in [8usize, 32, 128] {
        let w = random_arith(atoms, 3, atoms as u64);
        let parser = exp_parser(w.len());
        bench(&format!("fig15_expr/lookahead_machine/{atoms}"), || {
            simulate(&t, &w)
        });
        bench(&format!("fig15_expr/ll1_tree/{atoms}"), || {
            parse_exp_string(&t, &w).unwrap()
        });
        bench(&format!("fig15_expr/verified_parse/{atoms}"), || {
            parser.parse(&w).unwrap()
        });
        bench(&format!("fig15_expr/earley/{atoms}"), || {
            earley_recognize(&cfg, &w)
        });
    }
}
