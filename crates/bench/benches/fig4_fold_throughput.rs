//! F4 — Fig. 4's parse transformer `h : (A ⊗ A)* ⊸ A*` built from the
//! `fold` combinator, applied to lists of growing length.
//!
//! Expected shape: linear in the list length (fold is structural
//! recursion; each cons cell is visited once). The `checked` series adds
//! the dynamic intrinsic-verification overhead (validate + yield check).

use std::sync::Arc;

use lambek_bench::bench;
use lambek_core::alphabet::Alphabet;
use lambek_core::grammar::expr::{
    alt, chr, eps, star, tensor, var, Grammar, GrammarExpr, MuSystem,
};
use lambek_core::grammar::parse_tree::ParseTree;
use lambek_core::transform::combinators::{assoc, either, id, inj, tensor_par};
use lambek_core::transform::fold::{fold, roll};
use lambek_core::transform::Transformer;

fn star_system(a: Grammar) -> Arc<MuSystem> {
    MuSystem::new(vec![alt(eps(), tensor(a, var(0)))], vec!["star".to_owned()])
}

/// Fig. 4's `h`, in the paper's combinator form (§5.3):
/// `h = fold nil (cons ∘ id ⊗ cons ∘ assoc⁻¹)`.
fn fig4(a: Grammar) -> Transformer {
    let pairs = star_system(tensor(a.clone(), a.clone()));
    let astar = star(a.clone());
    let star_sys = match &*astar {
        GrammarExpr::Mu { system, .. } => system.clone(),
        _ => unreachable!(),
    };
    let nil_case = inj(0, vec![eps(), tensor(a.clone(), astar.clone())])
        .then(&roll(star_sys.clone(), 0))
        .unwrap();
    let cons = |tail: Grammar| {
        inj(1, vec![eps(), tensor(a.clone(), tail)])
            .then(&roll(star_sys.clone(), 0))
            .unwrap()
    };
    let cons_case = assoc(a.clone(), a.clone(), astar.clone())
        .then(&tensor_par(id(a.clone()), cons(astar.clone())))
        .unwrap()
        .then(&cons(astar))
        .unwrap();
    fold(pairs, 0, vec![either(nil_case, cons_case)])
}

fn list_of_pairs(n: usize, a: lambek_core::alphabet::Symbol) -> ParseTree {
    let mut t = ParseTree::roll(ParseTree::inj(0, ParseTree::Unit));
    for _ in 0..n {
        let pair = ParseTree::pair(ParseTree::Char(a), ParseTree::Char(a));
        t = ParseTree::roll(ParseTree::inj(1, ParseTree::pair(pair, t)));
    }
    t
}

fn main() {
    let sigma = Alphabet::abc();
    let a = sigma.symbol("a").unwrap();
    let h = fig4(chr(a));

    for n in [16usize, 64, 256, 1024] {
        let input = list_of_pairs(n, a);
        bench(&format!("fig4_fold/h_pairs_to_star/{n}"), || {
            h.apply(&input).unwrap()
        });
        bench(&format!("fig4_fold/h_checked/{n}"), || {
            h.apply_checked(&input).unwrap()
        });
    }
}
