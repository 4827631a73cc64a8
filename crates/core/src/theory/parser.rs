//! Verified parsers (Definition 4.6) and parser extension (Lemma 4.8).
//!
//! The paper's key observation: `String ⊸ A ⊕ ⊤` is too weak a type for a
//! parser (always answering `inr` inhabits it), while `String ⊸ A` is too
//! strong (most grammars reject some strings). The right notion pairs `A`
//! with a *negative grammar* `A¬` disjoint from `A` and demands a total
//! function `String ⊸ A ⊕ A¬`:
//!
//! * **soundness** is intrinsic: an `inl` answer is a parse tree of the
//!   actual input (the transformer cannot change the string);
//! * **completeness** follows from disjointness: an `inr` answer comes
//!   with an `A¬` parse of the input, and no string has both.
//!
//! [`VerifiedParser`] packages the data; [`VerifiedParser::parse`] runs it
//! with the dynamic intrinsic checks on; audit helpers verify disjointness
//! and totality against the denotational recognizer.

use crate::alphabet::{Alphabet, GString};
use crate::grammar::compile::CompiledGrammar;
use crate::grammar::expr::{alt, Grammar};
use crate::grammar::parse_tree::{validate, ParseTree};
use crate::grammar::string_type::{string_grammar, string_parse};
use crate::theory::equivalence::WeakEquiv;
use crate::theory::unambiguous::{all_strings, check_disjoint, OverlapWitness};
use crate::transform::{TransformError, Transformer};

/// The outcome of running a verified parser on a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// The input belongs to the grammar; here is its parse tree.
    Accept(ParseTree),
    /// The input does not belong; here is the parse of the negative
    /// grammar witnessing rejection.
    Reject(ParseTree),
}

impl ParseOutcome {
    /// The accepted tree, if any.
    pub fn accepted(&self) -> Option<&ParseTree> {
        match self {
            ParseOutcome::Accept(t) => Some(t),
            ParseOutcome::Reject(_) => None,
        }
    }

    /// `true` on acceptance.
    pub fn is_accept(&self) -> bool {
        matches!(self, ParseOutcome::Accept(_))
    }
}

/// A verified parser for `grammar` (Definition 4.6): a negative grammar
/// disjoint from it and a total transformer `String ⊸ A ⊕ A¬`.
#[derive(Debug, Clone)]
pub struct VerifiedParser {
    alphabet: Alphabet,
    grammar: Grammar,
    negative: Grammar,
    run: Transformer,
}

impl VerifiedParser {
    /// Packages a parser. `run` must have domain `String` (the grammar of
    /// [`string_grammar`]) and codomain `grammar ⊕ negative`.
    ///
    /// # Panics
    ///
    /// Panics if `run`'s endpoints do not match.
    pub fn new(
        alphabet: Alphabet,
        grammar: Grammar,
        negative: Grammar,
        run: Transformer,
    ) -> VerifiedParser {
        assert!(
            crate::transform::grammar_eq(run.dom(), &string_grammar(&alphabet)),
            "parser domain must be the String grammar"
        );
        assert!(
            crate::transform::grammar_eq(run.cod(), &alt(grammar.clone(), negative.clone())),
            "parser codomain must be A ⊕ A¬"
        );
        VerifiedParser {
            alphabet,
            grammar,
            negative,
            run,
        }
    }

    /// The grammar being parsed.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The negative grammar `A¬`.
    pub fn negative(&self) -> &Grammar {
        &self.negative
    }

    /// The alphabet of the input strings.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The underlying transformer `String ⊸ A ⊕ A¬`.
    pub fn transformer(&self) -> &Transformer {
        &self.run
    }

    /// Parses a string, with intrinsic verification: the result tree is
    /// validated against `A` (respectively `A¬`) *and* against the input
    /// string before being returned.
    ///
    /// # Errors
    ///
    /// Returns a [`TransformError`] if the underlying transformer fails
    /// or violates its contract — a correct parser never does.
    pub fn parse(&self, w: &GString) -> Result<ParseOutcome, TransformError> {
        let input = string_parse(w);
        let out = self.run.apply(&input)?;
        match out.into_inj() {
            Ok((0, tree)) => {
                validate(&tree, &self.grammar, w).map_err(|cause| TransformError::OutputShape {
                    transformer: self.run.name().to_owned(),
                    cause,
                })?;
                Ok(ParseOutcome::Accept(tree))
            }
            Ok((1, tree)) => {
                validate(&tree, &self.negative, w).map_err(|cause| {
                    TransformError::OutputShape {
                        transformer: self.run.name().to_owned(),
                        cause,
                    }
                })?;
                Ok(ParseOutcome::Reject(tree))
            }
            Ok((index, tree)) => Err(TransformError::Custom(format!(
                "parser returned a non-⊕ tree: {}",
                ParseTree::inj(index, tree)
            ))),
            Err(other) => Err(TransformError::Custom(format!(
                "parser returned a non-⊕ tree: {other}"
            ))),
        }
    }

    /// Audits the disjointness side condition of Definition 4.6 over all
    /// strings up to `max_len`.
    ///
    /// # Errors
    ///
    /// Returns the first string parsed by both `A` and `A¬`.
    pub fn audit_disjointness(&self, max_len: usize) -> Result<(), OverlapWitness> {
        check_disjoint(&self.grammar, &self.negative, &self.alphabet, max_len)
    }

    /// Audits the parser against the denotational recognizer over all
    /// strings up to `max_len`: it must accept exactly the strings in
    /// `L(A)` (soundness + completeness).
    ///
    /// # Errors
    ///
    /// Returns a description of the first disagreement.
    pub fn audit_against_recognizer(&self, max_len: usize) -> Result<(), String> {
        let cg = CompiledGrammar::new(&self.grammar);
        for w in all_strings(&self.alphabet, max_len) {
            let expected = cg.recognizes(&w);
            let got = self
                .parse(&w)
                .map_err(|e| format!("parser failed on {w}: {e}"))?;
            if got.is_accept() != expected {
                return Err(format!(
                    "parser {} {} but the grammar {} it",
                    if got.is_accept() {
                        "accepts"
                    } else {
                        "rejects"
                    },
                    self.alphabet.display(&w),
                    if expected { "contains" } else { "excludes" },
                ));
            }
        }
        Ok(())
    }
}

/// Lemma 4.8: a parser for `A` extends along a weak equivalence `A ≈ B`
/// to a parser for `B`, keeping the same negative grammar.
///
/// The forward transformer maps accepted `A`-parses to `B`-parses; the
/// backward transformer is what makes `A¬` disjoint from `B` (any
/// `B`-parse of a string would yield an `A`-parse of the same string).
///
/// # Errors
///
/// Returns a composition error if the equivalence does not connect the
/// parser's grammar.
pub fn extend_parser(
    parser: &VerifiedParser,
    equiv: &WeakEquiv,
) -> Result<VerifiedParser, TransformError> {
    if equiv.left() != parser.grammar() {
        return Err(TransformError::ComposeMismatch {
            cod: format!("{}", parser.grammar()),
            dom: format!("{}", equiv.left()),
        });
    }
    let b = equiv.right().clone();
    let neg = parser.negative.clone();
    let fwd = equiv.fwd.clone();
    let run = parser.run.clone();
    let cod = alt(b.clone(), neg.clone());
    let name = format!("extend({})", run.name());
    let lifted = Transformer::from_fn(name, run.dom().clone(), cod, move |t| {
        match run.apply(t)?.into_inj() {
            Ok((0, tree)) => Ok(ParseTree::inj(0, fwd.apply(&tree)?)),
            Ok((index, tree)) => Ok(ParseTree::inj(index, tree)),
            Err(other) => Ok(other),
        }
    });
    Ok(VerifiedParser::new(parser.alphabet.clone(), b, neg, lifted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::expr::{chr, eps, star, tensor, GrammarExpr};
    use crate::transform::combinators::{either, id, inj};
    use crate::transform::fold;

    /// A toy hand-rolled parser for 'a'* over {a,b,c}: accepts strings of
    /// only-a's, negative grammar = String-with-a-non-a-somewhere, here
    /// simply ⊤ minus... we use the crude but disjoint negative grammar
    /// (Char* ⊗ ('b' ⊕ 'c') ⊗ Char*): strings containing a non-'a'.
    fn astar_parser() -> VerifiedParser {
        let sigma = Alphabet::abc();
        let a = sigma.symbol("a").unwrap();
        let (b, c) = (sigma.symbol("b").unwrap(), sigma.symbol("c").unwrap());
        let target = star(chr(a));
        let negative = tensor(
            star(crate::grammar::string_type::char_grammar(&sigma)),
            tensor(
                alt(chr(b), chr(c)),
                star(crate::grammar::string_type::char_grammar(&sigma)),
            ),
        );
        let cod = alt(target.clone(), negative.clone());
        let dom = string_grammar(&sigma);
        let run = Transformer::from_fn("astar-parse", dom, cod, move |t| {
            let w = t.flatten();
            let first_non_a = w.iter().position(|s| s != a);
            match first_non_a {
                None => {
                    // all a's: build the star parse.
                    let mut tree = ParseTree::roll(ParseTree::inj(0, ParseTree::Unit));
                    for sym in w.iter().rev() {
                        tree = ParseTree::roll(ParseTree::inj(
                            1,
                            ParseTree::pair(ParseTree::Char(sym), tree),
                        ));
                    }
                    Ok(ParseTree::inj(0, tree))
                }
                Some(i) => {
                    let pre = string_parse(&w.substring(0, i));
                    let bad = w[i];
                    let tag = if bad == b { 0 } else { 1 };
                    let post = string_parse(&w.substring(i + 1, w.len()));
                    Ok(ParseTree::inj(
                        1,
                        ParseTree::pair(
                            pre,
                            ParseTree::pair(ParseTree::inj(tag, ParseTree::Char(bad)), post),
                        ),
                    ))
                }
            }
        });
        VerifiedParser::new(sigma, target, negative, run)
    }

    #[test]
    fn astar_parser_sound_and_complete() {
        let p = astar_parser();
        p.audit_disjointness(4).unwrap();
        p.audit_against_recognizer(4).unwrap();
    }

    #[test]
    fn parse_returns_validated_trees() {
        let p = astar_parser();
        let w = p.alphabet().parse_str("aaa").unwrap();
        let out = p.parse(&w).unwrap();
        let t = out.accepted().unwrap();
        assert_eq!(t.flatten(), w);
        let w = p.alphabet().parse_str("aba").unwrap();
        let out = p.parse(&w).unwrap();
        assert!(!out.is_accept());
    }

    #[test]
    fn lemma_4_8_extension() {
        // Extend the 'a'* parser along the strong equivalence
        // 'a'* ≅ I ⊕ ('a' ⊗ 'a'*)  (unroll/roll).
        let p = astar_parser();
        let astar = p.grammar().clone();
        let sys = match &*astar {
            GrammarExpr::Mu { system, .. } => system.clone(),
            _ => unreachable!(),
        };
        let eq = WeakEquiv::new(fold::unroll(sys.clone(), 0), fold::roll(sys, 0));
        let q = extend_parser(&p, &eq).unwrap();
        q.audit_disjointness(3).unwrap();
        q.audit_against_recognizer(3).unwrap();
        let w = q.alphabet().parse_str("aa").unwrap();
        let out = q.parse(&w).unwrap();
        // The extended parser produces unrolled parses: σ1 (a, rest).
        assert!(matches!(
            out.accepted().unwrap(),
            ParseTree::Inj { index: 1, .. }
        ));
    }

    #[test]
    fn extension_requires_matching_grammar() {
        let p = astar_parser();
        let sigma = p.alphabet().clone();
        let wrong = WeakEquiv::new(id(eps()), id(eps()));
        assert!(extend_parser(&p, &wrong).is_err());
        let _ = sigma;
    }

    use crate::grammar::expr::alt;
    use crate::transform::combinators::bang;

    #[test]
    fn trivial_inr_parser_fails_disjointness_audit() {
        // The paper's cautionary tale: String ⊸ A ⊕ ⊤ with constant inr
        // typechecks but ⊤ is not disjoint from A — the audit catches it.
        let sigma = Alphabet::abc();
        let a = chr(sigma.symbol("a").unwrap());
        let dom = string_grammar(&sigma);
        let cod = alt(a.clone(), crate::grammar::expr::top());
        let run = Transformer::from_fn("always-inr", dom.clone(), cod, |t| {
            Ok(ParseTree::inj(1, ParseTree::Top(t.flatten())))
        });
        let p = VerifiedParser::new(sigma, a, crate::grammar::expr::top(), run);
        assert!(p.audit_disjointness(2).is_err());
        let _ = (
            inj(0, vec![eps(), eps()]),
            either(id(eps()), id(eps())),
            bang(eps()),
        );
    }
}
