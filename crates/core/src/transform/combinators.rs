//! Correct-by-construction transformer combinators.
//!
//! These mirror the combinator style of the paper's Agda shallow embedding
//! (§5.3): each combinator corresponds to a typing rule of Fig. 9 or a
//! structural isomorphism of the biclosed monoidal category `Gr`, and each
//! preserves yields by construction. Notably absent: any form of `swap`
//! (exchange), `dup` (contraction) or `drop` (weakening) — the calculus is
//! non-commutative linear.

use crate::grammar::expr::{alt, and, bot, eps, plus, tensor, top, with, Grammar};
use crate::grammar::parse_tree::ParseTree;
use crate::transform::{TransformError, Transformer};

fn shape_err(name: &str, tree: &ParseTree) -> TransformError {
    TransformError::Custom(format!("{name}: unexpected tree shape {tree}"))
}

/// Identity transformer `id : A ⊸ A`.
pub fn id(a: Grammar) -> Transformer {
    Transformer::from_fn("id", a.clone(), a, |t| Ok(t.clone()))
}

/// Parallel tensor `f ⊗ g : A ⊗ C ⊸ B ⊗ D` from `f : A ⊸ B`, `g : C ⊸ D`.
pub fn tensor_par(f: Transformer, g: Transformer) -> Transformer {
    let dom = tensor(f.dom().clone(), g.dom().clone());
    let cod = tensor(f.cod().clone(), g.cod().clone());
    let name = format!("({} ⊗ {})", f.name(), g.name());
    Transformer::from_fn(name.clone(), dom, cod, move |t| match t {
        ParseTree::Pair(l, r) => Ok(ParseTree::pair(f.apply(l)?, g.apply(r)?)),
        other => Err(shape_err(&name, other)),
    })
}

/// Associator `α : (A ⊗ B) ⊗ C ⊸ A ⊗ (B ⊗ C)`.
pub fn assoc(a: Grammar, b: Grammar, c: Grammar) -> Transformer {
    let dom = tensor(tensor(a.clone(), b.clone()), c.clone());
    let cod = tensor(a, tensor(b, c));
    Transformer::from_fn("assoc", dom, cod, |t| match t {
        ParseTree::Pair(lr, c) => match &**lr {
            ParseTree::Pair(a, b) => Ok(ParseTree::pair(
                (**a).clone(),
                ParseTree::pair((**b).clone(), (**c).clone()),
            )),
            other => Err(shape_err("assoc", other)),
        },
        other => Err(shape_err("assoc", other)),
    })
}

/// Inverse associator `α⁻¹ : A ⊗ (B ⊗ C) ⊸ (A ⊗ B) ⊗ C`.
pub fn assoc_inv(a: Grammar, b: Grammar, c: Grammar) -> Transformer {
    let dom = tensor(a.clone(), tensor(b.clone(), c.clone()));
    let cod = tensor(tensor(a, b), c);
    Transformer::from_fn("assoc⁻¹", dom, cod, |t| match t {
        ParseTree::Pair(a, rc) => match &**rc {
            ParseTree::Pair(b, c) => Ok(ParseTree::pair(
                ParseTree::pair((**a).clone(), (**b).clone()),
                (**c).clone(),
            )),
            other => Err(shape_err("assoc⁻¹", other)),
        },
        other => Err(shape_err("assoc⁻¹", other)),
    })
}

/// Left unitor `λ : I ⊗ A ⊸ A`.
pub fn unit_l(a: Grammar) -> Transformer {
    let dom = tensor(eps(), a.clone());
    Transformer::from_fn("unitl", dom, a, |t| match t {
        ParseTree::Pair(u, a) if **u == ParseTree::Unit => Ok((**a).clone()),
        other => Err(shape_err("unitl", other)),
    })
}

/// Inverse left unitor `λ⁻¹ : A ⊸ I ⊗ A`.
pub fn unit_l_inv(a: Grammar) -> Transformer {
    let cod = tensor(eps(), a.clone());
    Transformer::from_fn("unitl⁻¹", a, cod, |t| {
        Ok(ParseTree::pair(ParseTree::Unit, t.clone()))
    })
}

/// Right unitor `ρ : A ⊗ I ⊸ A`.
pub fn unit_r(a: Grammar) -> Transformer {
    let dom = tensor(a.clone(), eps());
    Transformer::from_fn("unitr", dom, a, |t| match t {
        ParseTree::Pair(a, u) if **u == ParseTree::Unit => Ok((**a).clone()),
        other => Err(shape_err("unitr", other)),
    })
}

/// Inverse right unitor `ρ⁻¹ : A ⊸ A ⊗ I`.
pub fn unit_r_inv(a: Grammar) -> Transformer {
    let cod = tensor(a.clone(), eps());
    Transformer::from_fn("unitr⁻¹", a, cod, |t| {
        Ok(ParseTree::pair(t.clone(), ParseTree::Unit))
    })
}

/// Injection `σ index : A_index ⊸ ⊕_i A_i`.
///
/// # Panics
///
/// Panics if `index` is out of range for `summands`.
pub fn inj(index: usize, summands: Vec<Grammar>) -> Transformer {
    let dom = summands[index].clone();
    let cod = plus(summands);
    Transformer::from_fn(format!("σ{index}"), dom, cod, move |t| {
        Ok(ParseTree::inj(index, t.clone()))
    })
}

/// Case analysis: from `branches[i] : A_i ⊸ B` (all with the same
/// codomain), builds `⊕_i A_i ⊸ B` — the elimination rule for `⊕`.
///
/// # Panics
///
/// Panics if `branches` is empty (use [`absurd`] for the empty sum) or the
/// branch codomains disagree.
pub fn case(branches: Vec<Transformer>) -> Transformer {
    let cod = branches
        .first()
        .expect("case of an empty sum: use absurd")
        .cod()
        .clone();
    for b in &branches {
        assert!(
            crate::transform::grammar_eq(b.cod(), &cod),
            "case branches must share a codomain"
        );
    }
    let dom = plus(branches.iter().map(|b| b.dom().clone()).collect());
    Transformer::from_fn("case", dom, cod, move |t| match t {
        ParseTree::Inj { index, tree } => match branches.get(*index) {
            Some(b) => b.apply(tree),
            None => Err(shape_err("case", t)),
        },
        other => Err(shape_err("case", other)),
    })
}

/// Projection `π index : &_i A_i ⊸ A_index`.
///
/// # Panics
///
/// Panics if `index` is out of range for `components`.
pub fn proj(index: usize, components: Vec<Grammar>) -> Transformer {
    let cod = components[index].clone();
    let dom = with(components);
    Transformer::from_fn(format!("π{index}"), dom, cod, move |t| match t {
        ParseTree::Tuple(ts) => ts.get(index).cloned().ok_or_else(|| shape_err("π", t)),
        other => Err(shape_err("π", other)),
    })
}

/// Pairing: from `components[i] : B ⊸ A_i` (all with the same domain),
/// builds `B ⊸ &_i A_i` — the introduction rule for `&`.
///
/// # Panics
///
/// Panics if `components` is empty (use [`bang`] for `⊤`) or the domains
/// disagree.
pub fn pair_with(components: Vec<Transformer>) -> Transformer {
    let dom = components
        .first()
        .expect("pairing into an empty & : use bang")
        .dom()
        .clone();
    for c in &components {
        assert!(
            crate::transform::grammar_eq(c.dom(), &dom),
            "pair_with components must share a domain"
        );
    }
    let cod = with(components.iter().map(|c| c.cod().clone()).collect());
    Transformer::from_fn("⟨…⟩", dom, cod, move |t| {
        let ts = components
            .iter()
            .map(|c| c.apply(t))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParseTree::Tuple(ts))
    })
}

/// The unique map `! : A ⊸ ⊤`.
pub fn bang(a: Grammar) -> Transformer {
    Transformer::from_fn("!", a, top(), |t| Ok(ParseTree::Top(t.flatten())))
}

/// The unique map out of the empty grammar, `absurd : 0 ⊸ A`.
///
/// Applying it is always an error: no parse of `0` exists.
pub fn absurd(a: Grammar) -> Transformer {
    Transformer::from_fn("absurd", bot(), a, |_| {
        Err(TransformError::Unreachable {
            transformer: "absurd".to_owned(),
        })
    })
}

/// Left distributor of `⊗` over `⊕`:
/// `A ⊗ (B ⊕ C) ⊸ (A ⊗ B) ⊕ (A ⊗ C)`.
pub fn distl(a: Grammar, b: Grammar, c: Grammar) -> Transformer {
    let dom = tensor(a.clone(), alt(b.clone(), c.clone()));
    let cod = alt(tensor(a.clone(), b), tensor(a, c));
    Transformer::from_fn("distl", dom, cod, |t| match t {
        ParseTree::Pair(l, r) => match &**r {
            ParseTree::Inj { index, tree } => Ok(ParseTree::inj(
                *index,
                ParseTree::pair((**l).clone(), (**tree).clone()),
            )),
            other => Err(shape_err("distl", other)),
        },
        other => Err(shape_err("distl", other)),
    })
}

/// Binary product of maps: `f & g : A ⊸ B & C` from `f : A ⊸ B` and
/// `g : A ⊸ C`. Shorthand for a two-component [`pair_with`].
pub fn fanout(f: Transformer, g: Transformer) -> Transformer {
    pair_with(vec![f, g])
}

/// Binary case: `[f, g] : A ⊕ B ⊸ C` from `f : A ⊸ C`, `g : B ⊸ C`.
/// Shorthand for a two-branch [`case`].
pub fn either(f: Transformer, g: Transformer) -> Transformer {
    case(vec![f, g])
}

/// Product of two grammars' `&` as a transformer pair check helper:
/// `first : A & B ⊸ A`. Shorthand for [`proj`] at index 0.
pub fn first(a: Grammar, b: Grammar) -> Transformer {
    proj(0, vec![a, b])
}

/// `second : A & B ⊸ B`. Shorthand for [`proj`] at index 1.
pub fn second(a: Grammar, b: Grammar) -> Transformer {
    proj(1, vec![a, b])
}

/// `iso` helper: a pair of mutually inverse transformers (checked by the
/// theory layer / tests, not statically).
#[derive(Debug, Clone)]
pub struct Iso {
    /// Forward direction.
    pub fwd: Transformer,
    /// Backward direction.
    pub bwd: Transformer,
}

impl Iso {
    /// Builds an iso from two transformers with matching endpoints.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints do not line up.
    pub fn new(fwd: Transformer, bwd: Transformer) -> Iso {
        assert!(
            crate::transform::grammar_eq(fwd.dom(), bwd.cod()),
            "iso endpoints must line up"
        );
        assert!(
            crate::transform::grammar_eq(fwd.cod(), bwd.dom()),
            "iso endpoints must line up"
        );
        Iso { fwd, bwd }
    }

    /// The reverse iso.
    pub fn reverse(&self) -> Iso {
        Iso {
            fwd: self.bwd.clone(),
            bwd: self.fwd.clone(),
        }
    }
}

/// `and` / binary-`&` introduction on grammars, re-exported for symmetry
/// with [`either`]: `a & b` as a grammar.
pub fn and_grammar(a: Grammar, b: Grammar) -> Grammar {
    and(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{Alphabet, Symbol};
    use crate::grammar::expr::chr;

    fn setup() -> (Alphabet, Symbol, Symbol, Symbol) {
        let s = Alphabet::abc();
        (
            s.clone(),
            s.symbol("a").unwrap(),
            s.symbol("b").unwrap(),
            s.symbol("c").unwrap(),
        )
    }

    fn leaf(sym: Symbol) -> ParseTree {
        ParseTree::Char(sym)
    }

    #[test]
    fn id_roundtrip() {
        let (_, a, ..) = setup();
        let t = leaf(a);
        assert_eq!(id(chr(a)).apply_checked(&t).unwrap(), t);
    }

    #[test]
    fn assoc_roundtrips() {
        let (_, a, b, c) = setup();
        let (ga, gb, gc) = (chr(a), chr(b), chr(c));
        let t = ParseTree::pair(ParseTree::pair(leaf(a), leaf(b)), leaf(c));
        let fwd = assoc(ga.clone(), gb.clone(), gc.clone());
        let bwd = assoc_inv(ga, gb, gc);
        let mid = fwd.apply_checked(&t).unwrap();
        assert_eq!(
            mid,
            ParseTree::pair(leaf(a), ParseTree::pair(leaf(b), leaf(c)))
        );
        assert_eq!(bwd.apply_checked(&mid).unwrap(), t);
    }

    #[test]
    fn unitors_roundtrip() {
        let (_, a, ..) = setup();
        let ga = chr(a);
        let t = leaf(a);
        let lt = unit_l_inv(ga.clone()).apply_checked(&t).unwrap();
        assert_eq!(unit_l(ga.clone()).apply_checked(&lt).unwrap(), t);
        let rt = unit_r_inv(ga.clone()).apply_checked(&t).unwrap();
        assert_eq!(unit_r(ga).apply_checked(&rt).unwrap(), t);
    }

    #[test]
    fn case_dispatches_on_tag() {
        let (_, a, b, _) = setup();
        // [inl ↦ !, inr ↦ !] : 'a' ⊕ 'b' ⊸ ⊤
        let f = either(bang(chr(a)), bang(chr(b)));
        let out = f.apply_checked(&ParseTree::inj(1, leaf(b))).unwrap();
        assert!(matches!(out, ParseTree::Top(_)));
    }

    #[test]
    fn tensor_par_maps_both_sides() {
        let (_, a, b, _) = setup();
        let f = tensor_par(bang(chr(a)), id(chr(b)));
        let out = f.apply_checked(&ParseTree::pair(leaf(a), leaf(b))).unwrap();
        match &out {
            ParseTree::Pair(l, r) => {
                assert!(matches!(**l, ParseTree::Top(_)));
                assert_eq!(**r, leaf(b));
            }
            other => panic!("expected Pair, got {other}"),
        }
    }

    #[test]
    fn fanout_then_proj_is_component() {
        let (_, a, ..) = setup();
        let ga = chr(a);
        let f = fanout(id(ga.clone()), bang(ga.clone()));
        let p0 = first(ga.clone(), top());
        let composed = f.then(&p0).unwrap();
        let t = leaf(a);
        assert_eq!(composed.apply_checked(&t).unwrap(), t);
    }

    #[test]
    fn compose_mismatch_is_an_error() {
        let (_, a, b, _) = setup();
        let f = id(chr(a));
        let g = id(chr(b));
        assert!(matches!(
            f.then(&g),
            Err(TransformError::ComposeMismatch { .. })
        ));
    }

    #[test]
    fn yield_violation_caught_by_checked_apply() {
        let (_, a, b, _) = setup();
        // A deliberately broken transformer that replaces 'a' by 'b'.
        let evil = Transformer::from_fn("evil", chr(a), chr(b), move |_| Ok(leaf(b)));
        assert!(matches!(
            evil.apply_checked(&leaf(a)),
            Err(TransformError::YieldChanged { .. })
        ));
    }

    #[test]
    fn distl_routes_tags_outward() {
        let (_, a, b, c) = setup();
        let f = distl(chr(a), chr(b), chr(c));
        let t = ParseTree::pair(leaf(a), ParseTree::inj(1, leaf(c)));
        let out = f.apply_checked(&t).unwrap();
        assert_eq!(out, ParseTree::inj(1, ParseTree::pair(leaf(a), leaf(c))));
    }

    #[test]
    fn absurd_never_applies() {
        let (_, a, ..) = setup();
        let f = absurd(chr(a));
        assert!(matches!(
            f.apply(&ParseTree::Unit),
            Err(TransformError::Unreachable { .. })
        ));
    }
}
