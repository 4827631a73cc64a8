//! `roll`, `unroll`, functorial `map` and `fold` for inductive linear
//! types (§3.3, Fig. 10).
//!
//! A system `μF` of mutually recursive definitions is an initial algebra
//! for the strictly positive functor described by its bodies. `roll`
//! packages a one-step unfolding into the inductive type, `fold`
//! interprets the constructors homomorphically into any other algebra, and
//! the `Ind-β` law `fold f (roll e) ≡ f (map (fold f) e)` is checked by
//! the test suite and holds *by definition* of this implementation.

use std::sync::Arc;

use crate::grammar::expr::{subst_vars, unfolding, Grammar, GrammarExpr, MuSystem};
use crate::grammar::parse_tree::ParseTree;
use crate::transform::{TransformError, Transformer};

/// `roll : el(F_entry)(μF) ⊸ μF entry` — wraps a one-step unfolding.
pub fn roll(system: Arc<MuSystem>, entry: usize) -> Transformer {
    let dom = unfolding(&system, entry);
    let cod = crate::grammar::expr::mu(system, entry);
    Transformer::from_fn("roll", dom, cod, |t| Ok(ParseTree::roll(t.clone())))
}

/// `unroll : μF entry ⊸ el(F_entry)(μF)` — unwraps one constructor layer.
/// The inverse of [`roll`] (initial algebras are fixed points).
pub fn unroll(system: Arc<MuSystem>, entry: usize) -> Transformer {
    let dom = crate::grammar::expr::mu(system.clone(), entry);
    let cod = unfolding(&system, entry);
    Transformer::from_fn("unroll", dom, cod, |t| match t {
        ParseTree::Roll(inner) => Ok((**inner).clone()),
        other => Err(TransformError::Custom(format!(
            "unroll: expected roll, got {other}"
        ))),
    })
}

/// Functorial action `map(F_entry) f : el(F_entry)(A) ⊸ el(F_entry)(B)`
/// (Fig. 17): applies `fs[i] : A_i ⊸ B_i` at every `Var(i)` position of
/// the body of definition `entry`, leaving all constant structure alone.
///
/// # Panics
///
/// Panics if `fs` does not provide one transformer per definition.
pub fn map_functor(system: &Arc<MuSystem>, entry: usize, fs: &[Transformer]) -> Transformer {
    assert_eq!(fs.len(), system.len(), "one transformer per definition");
    let doms: Vec<Grammar> = fs.iter().map(|f| f.dom().clone()).collect();
    let cods: Vec<Grammar> = fs.iter().map(|f| f.cod().clone()).collect();
    let dom = subst_vars(system.def(entry), &doms);
    let cod = subst_vars(system.def(entry), &cods);
    let body = system.def(entry).clone();
    let fs = fs.to_vec();
    Transformer::from_fn("map", dom, cod, move |t| {
        map_vars(&body, t, &|i, sub| fs[i].apply(sub))
    })
}

/// Walks a definition body and a parse tree in parallel, applying `f` at
/// every recursion-variable position. The structural backbone of both
/// [`map_functor`] and [`fold`].
pub(crate) fn map_vars(
    body: &Grammar,
    tree: &ParseTree,
    f: &dyn Fn(usize, &ParseTree) -> Result<ParseTree, TransformError>,
) -> Result<ParseTree, TransformError> {
    let fail = || {
        Err(TransformError::Custom(format!(
            "map: tree {tree} does not match functor body {body}"
        )))
    };
    match (&**body, tree) {
        (GrammarExpr::Var(i), t) => f(*i, t),
        (GrammarExpr::Tensor(l, r), ParseTree::Pair(tl, tr)) => {
            Ok(ParseTree::pair(map_vars(l, tl, f)?, map_vars(r, tr, f)?))
        }
        (GrammarExpr::Plus(gs), ParseTree::Inj { index, tree: t }) => match gs.get(*index) {
            Some(g) => Ok(ParseTree::inj(*index, map_vars(g, t, f)?)),
            None => fail(),
        },
        (GrammarExpr::With(gs), ParseTree::Tuple(ts)) if gs.len() == ts.len() => {
            let mapped = gs
                .iter()
                .zip(ts)
                .map(|(g, t)| map_vars(g, t, f))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ParseTree::Tuple(mapped))
        }
        // Constant positions: no recursion variables inside (nested μ
        // systems are closed), so the subtree passes through unchanged.
        (GrammarExpr::Char(_), _)
        | (GrammarExpr::Eps, _)
        | (GrammarExpr::Top, _)
        | (GrammarExpr::Mu { .. }, _) => Ok(tree.clone()),
        (GrammarExpr::Bot, _) => fail(),
        _ => fail(),
    }
}

/// `fold` — the elimination principle of Fig. 10.
///
/// Given one algebra per definition, `algebras[i] : el(F_i)(A) ⊸ A_i`
/// (where the domain is the body of definition `i` with `Var(j)` replaced
/// by `algebras[j].cod()`), produces the unique homomorphism
/// `μF entry ⊸ A_entry`.
///
/// # Panics
///
/// Panics if the number of algebras does not match the system, or an
/// algebra's domain is not the body instantiated at the algebra codomains
/// (a wrongly-typed algebra).
pub fn fold(system: Arc<MuSystem>, entry: usize, algebras: Vec<Transformer>) -> Transformer {
    assert_eq!(
        algebras.len(),
        system.len(),
        "one algebra per definition of the system"
    );
    let cods: Vec<Grammar> = algebras.iter().map(|a| a.cod().clone()).collect();
    for (i, alg) in algebras.iter().enumerate() {
        let expected = subst_vars(system.def(i), &cods);
        assert_eq!(
            alg.dom(),
            &expected,
            "algebra {i} has domain {} but the functor body demands {expected}",
            alg.dom()
        );
    }
    let dom = crate::grammar::expr::mu(system.clone(), entry);
    let cod = cods[entry].clone();
    Transformer::from_fn("fold", dom, cod, move |t| {
        fold_apply(&system, &algebras, entry, t)
    })
}

fn fold_apply(
    system: &Arc<MuSystem>,
    algebras: &[Transformer],
    entry: usize,
    tree: &ParseTree,
) -> Result<ParseTree, TransformError> {
    match tree {
        ParseTree::Roll(inner) => {
            // Ind-β: fold f (roll e) = f (map (fold f) e).
            let mapped = map_vars(system.def(entry), inner, &|j, sub| {
                fold_apply(system, algebras, j, sub)
            })?;
            algebras[entry].apply(&mapped)
        }
        other => Err(TransformError::Custom(format!(
            "fold: expected roll, got {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{Alphabet, GString, Symbol};
    use crate::grammar::expr::{alt, chr, eps, star, tensor, var};
    use crate::grammar::parse_tree::validate;
    use crate::transform::combinators::{assoc, case, either, id, inj, tensor_par, unit_l};

    fn setup() -> (Alphabet, Symbol, Symbol) {
        let s = Alphabet::abc();
        (s.clone(), s.symbol("a").unwrap(), s.symbol("b").unwrap())
    }

    /// Builds the star system for grammar `a` and a list parse of the
    /// given element trees.
    fn star_system(a: Grammar) -> Arc<MuSystem> {
        MuSystem::new(vec![alt(eps(), tensor(a, var(0)))], vec!["star".to_owned()])
    }

    fn list_tree(elems: Vec<ParseTree>) -> ParseTree {
        let mut t = ParseTree::roll(ParseTree::inj(0, ParseTree::Unit));
        for e in elems.into_iter().rev() {
            t = ParseTree::roll(ParseTree::inj(1, ParseTree::pair(e, t)));
        }
        t
    }

    #[test]
    fn roll_unroll_inverse() {
        let (_, a, _) = setup();
        let sys = star_system(chr(a));
        let t = list_tree(vec![ParseTree::Char(a), ParseTree::Char(a)]);
        let un = unroll(sys.clone(), 0).apply_checked(&t).unwrap();
        let re = roll(sys, 0).apply_checked(&un).unwrap();
        assert_eq!(re, t);
    }

    #[test]
    fn fold_length_as_bang() {
        let (s, a, _) = setup();
        // fold with algebra into ⊤: I ⊕ ('a' ⊗ ⊤) ⊸ ⊤ — collapses a list.
        let sys = star_system(chr(a));
        let alg_dom_summands = [eps(), tensor(chr(a), crate::grammar::expr::top())];
        let alg = case(vec![
            crate::transform::combinators::bang(alg_dom_summands[0].clone()),
            crate::transform::combinators::bang(alg_dom_summands[1].clone()),
        ]);
        let f = fold(sys, 0, vec![alg]);
        let t = list_tree(vec![ParseTree::Char(a); 3]);
        let out = f.apply_checked(&t).unwrap();
        assert_eq!(out.flatten(), s.parse_str("aaa").unwrap());
        assert!(matches!(out, ParseTree::Top(_)));
    }

    /// Fig. 4: `h : (A ⊗ A)* ⊸ A*`, `h nil = nil`,
    /// `h (cons (a₁,a₂) as) = cons a₁ (cons a₂ (h as))`.
    fn fig4_transformer(a: Grammar) -> Transformer {
        let pairs = star_system(tensor(a.clone(), a.clone()));
        let astar = star(a.clone());
        // Algebra: I ⊕ ((A⊗A) ⊗ A*) ⊸ A*
        // nil case: I ⊸ A* — σ0 then roll.
        let star_sys = match &*astar {
            GrammarExpr::Mu { system, .. } => system.clone(),
            _ => unreachable!(),
        };
        let nil_case = inj(0, vec![eps(), tensor(a.clone(), astar.clone())])
            .then(&roll(star_sys.clone(), 0))
            .unwrap();
        // cons case: (A⊗A) ⊗ A* ⊸ A*:
        //   assoc to A ⊗ (A ⊗ A*), cons inner, cons outer.
        let cons = |tail_ty: Grammar| -> Transformer {
            // A ⊗ A* ⊸ A*: σ1 then roll.
            inj(1, vec![eps(), tensor(a.clone(), tail_ty)])
                .then(&roll(star_sys.clone(), 0))
                .unwrap()
        };
        let cons_inner = tensor_par(id(a.clone()), cons(astar.clone()));
        let cons_case = assoc(a.clone(), a.clone(), astar.clone())
            .then(&cons_inner)
            .unwrap()
            .then(&cons(astar.clone()))
            .unwrap();
        fold(pairs, 0, vec![either(nil_case, cons_case)])
    }

    #[test]
    fn fig4_pairs_to_star() {
        let (s, a, _) = setup();
        let h = fig4_transformer(chr(a));
        // Input: list of 2 pairs — parses "aaaa".
        let pair_elem = ParseTree::pair(ParseTree::Char(a), ParseTree::Char(a));
        let t = list_tree(vec![pair_elem.clone(), pair_elem]);
        let out = h.apply_checked(&t).unwrap();
        let w = s.parse_str("aaaa").unwrap();
        assert_eq!(out.flatten(), w);
        validate(&out, &star(chr(a)), &w).unwrap();
        // Empty list maps to nil.
        let out = h.apply_checked(&list_tree(vec![])).unwrap();
        assert_eq!(out.flatten(), GString::new());
    }

    #[test]
    fn ind_beta_law() {
        let (_, a, _) = setup();
        // fold f (roll e) == f (map (fold f) e) — check on Fig. 4's fold.
        let h = fig4_transformer(chr(a));
        let sys = star_system(tensor(chr(a), chr(a)));
        let pair_elem = ParseTree::pair(ParseTree::Char(a), ParseTree::Char(a));
        let t = list_tree(vec![pair_elem.clone(), pair_elem]);
        // Left side.
        let lhs = h.apply(&t).unwrap();
        // Right side: unroll, map fold over vars, apply algebra. We can't
        // reach the algebra directly, so recompute via map_vars + h.
        let inner = match &t {
            ParseTree::Roll(i) => (**i).clone(),
            _ => unreachable!(),
        };
        let mapped = map_vars(sys.def(0), &inner, &|_, sub| h.apply(sub)).unwrap();
        // mapped : I ⊕ ((A⊗A) ⊗ A*) — apply the same algebra h uses by
        // folding a singleton: reconstruct via cons of head + tail.
        match &mapped {
            ParseTree::Inj { index: 1, tree } => match &**tree {
                ParseTree::Pair(hd, tl) => {
                    // lhs must be cons a1 (cons a2 tl).
                    let (a1, a2) = match &**hd {
                        ParseTree::Pair(x, y) => ((**x).clone(), (**y).clone()),
                        other => panic!("expected pair head, got {other}"),
                    };
                    let expect = ParseTree::roll(ParseTree::inj(
                        1,
                        ParseTree::pair(
                            a1,
                            ParseTree::roll(ParseTree::inj(1, ParseTree::pair(a2, (**tl).clone()))),
                        ),
                    ));
                    assert_eq!(lhs, expect);
                }
                other => panic!("expected pair, got {other}"),
            },
            other => panic!("expected cons image, got {other}"),
        }
    }

    #[test]
    fn map_functor_acts_at_var_positions_only() {
        let (_, a, b) = setup();
        let sys = star_system(chr(a));
        // map(F)(f) with f : ⊤ ⊸ ⊤ over the body I ⊕ ('a' ⊗ X): chars stay.
        let f = id(crate::grammar::expr::top());
        let m = map_functor(&sys, 0, &[f]);
        // Need a tree of I ⊕ ('a' ⊗ ⊤).
        let t = ParseTree::inj(
            1,
            ParseTree::pair(ParseTree::Char(a), ParseTree::Top(GString::singleton(b))),
        );
        assert_eq!(m.apply_checked(&t).unwrap(), t);
    }

    #[test]
    fn fold_rejects_wrong_algebra_count() {
        let (_, a, _) = setup();
        let sys = star_system(chr(a));
        let result = std::panic::catch_unwind(|| fold(sys, 0, vec![]));
        assert!(result.is_err());
    }

    #[test]
    fn unit_l_after_fold_composes() {
        // Smoke test that fold results compose with other combinators.
        let (_, a, _) = setup();
        let sys = star_system(chr(a));
        let astar = crate::grammar::expr::mu(sys.clone(), 0);
        let f = unit_l(astar.clone());
        let t = ParseTree::pair(ParseTree::Unit, list_tree(vec![ParseTree::Char(a)]));
        let out = f.apply_checked(&t).unwrap();
        assert_eq!(out.flatten(), GString::singleton(a));
        let _ = sys;
    }

    use crate::grammar::expr::GrammarExpr;
}
