//! Thompson's construction with strong-equivalence transformers
//! (Construction 4.11).
//!
//! Every regex `R` compiles to an NFA `N(R)` such that `R` is *strongly
//! equivalent* to `TraceN (N.init)`: parse trees of the regex and
//! accepting traces of the NFA are in bijection, string by string. The
//! construction is compositional — each sub-regex owns a *fragment* with
//! a unique start and accept state — and the bijection is structural
//! recursion over fragments:
//!
//! * `parse → trace`: thread a continuation trace through the fragment;
//! * `trace → parse`: deterministic descent, because every transition
//!   id pins down which fragment and which constructor produced it.
//!
//! **Set fragments.** A character class such as `[a-z]` reaches this
//! module as a chain of `|` over `Char` leaves. Compiled one constructor
//! at a time it would be a tree of k one-edge fragments joined by
//! 4(k−1) ε-edges, which the subset construction re-walks for every
//! (DFA state, symbol) pair. Instead every *maximal all-`Char`
//! alternation* — and every lone `Char` — compiles to one fragment: a
//! start state, an accept state and one labeled edge per leaf, left to
//! right, with no ε-edge. A repeated character keeps its own edge, so
//! `a|a` still has two accepting traces on `a`. The parse of leaf k (its
//! path of `σ0`/`σ1` injections through the alternation) maps to edge k
//! and back, so the strong equivalence holds as before. The sets are
//! found in one bottom-up pass before construction.

use std::collections::HashMap;
use std::ops::Range;

use lambek_automata::nfa::{Nfa, NfaTrace, StateId};
use lambek_core::alphabet::{Alphabet, Symbol};
use lambek_core::grammar::parse_tree::ParseTree;
use lambek_core::theory::equivalence::{StrongEquiv, WeakEquiv};
use lambek_core::transform::{TransformError, Transformer};

use crate::ast::Regex;
use crate::deriv_table::char_alternations;

/// Wiring metadata of one fragment, mirroring the regex structure.
#[derive(Debug, Clone)]
enum Frag {
    /// `∅`: two disconnected states.
    Empty,
    /// `ε`: one ε-transition `start → acc`.
    Eps { e: usize },
    /// `'c'`, or a maximal all-`Char` alternation: one labeled
    /// transition `start → acc` per leaf, left to right, with the
    /// consecutive ids `edges`.
    Set { edges: Range<usize> },
    /// `l · r` with an ε bridging `l.acc → r.start`.
    Concat {
        mid: usize,
        l: Box<FragMeta>,
        r: Box<FragMeta>,
    },
    /// `l | r` with ε fan-out/fan-in.
    Alt {
        into_l: usize,
        into_r: usize,
        out_l: usize,
        out_r: usize,
        l: Box<FragMeta>,
        r: Box<FragMeta>,
    },
    /// `r*`: `start --enter--> inner.start`, `inner.acc --back--> start`,
    /// `start --exit--> acc`.
    Star {
        enter: usize,
        exit: usize,
        back: usize,
        inner: Box<FragMeta>,
    },
}

#[derive(Debug, Clone)]
struct FragMeta {
    start: StateId,
    #[allow(dead_code)]
    acc: StateId,
    frag: Frag,
}

/// A Thompson-compiled regex: the NFA plus the fragment tree that defines
/// the parse↔trace bijection.
#[derive(Debug, Clone)]
pub struct Thompson {
    nfa: Nfa,
    root: FragMeta,
}

/// The maximal all-`Char` alternations of a regex, by node address,
/// each with its leaves left to right.
type Sets = HashMap<*const Regex, Vec<Symbol>>;

/// Runs Thompson's construction (Construction 4.11).
pub fn thompson(alphabet: &Alphabet, re: &Regex) -> Thompson {
    let sets: Sets = char_alternations(re)
        .into_iter()
        .filter(|(node, _)| matches!(node, Regex::Alt(..)))
        .map(|(node, leaves)| (node as *const Regex, leaves))
        .collect();
    // Start with a single placeholder state; `build` adds the real ones.
    let mut nfa = Nfa::new(alphabet.clone(), 1, 0);
    // State 0 is reused as the root fragment's start.
    let root = build(&mut nfa, re, Some(0), &sets);
    nfa.set_accepting(root.acc, true);
    Thompson { nfa, root }
}

/// A set fragment: one labeled edge `start → acc` per leaf.
fn set(nfa: &mut Nfa, start: StateId, leaves: &[Symbol]) -> FragMeta {
    let acc = nfa.add_state();
    let first = nfa.transitions().len();
    for &c in leaves {
        nfa.add_transition(start, c, acc);
    }
    FragMeta {
        start,
        acc,
        frag: Frag::Set {
            edges: first..first + leaves.len(),
        },
    }
}

fn build(nfa: &mut Nfa, re: &Regex, reuse_start: Option<StateId>, sets: &Sets) -> FragMeta {
    let start = reuse_start.unwrap_or_else(|| nfa.add_state());
    if let Some(leaves) = sets.get(&(re as *const Regex)) {
        return set(nfa, start, leaves);
    }
    match re {
        Regex::Empty => {
            let acc = nfa.add_state();
            FragMeta {
                start,
                acc,
                frag: Frag::Empty,
            }
        }
        Regex::Eps => {
            let acc = nfa.add_state();
            let e = nfa.add_eps(start, acc);
            FragMeta {
                start,
                acc,
                frag: Frag::Eps { e },
            }
        }
        Regex::Char(c) => set(nfa, start, &[*c]),
        Regex::Concat(l, r) => {
            let lf = build(nfa, l, Some(start), sets);
            let rf = build(nfa, r, None, sets);
            let mid = nfa.add_eps(lf.acc, rf.start);
            FragMeta {
                start,
                acc: rf.acc,
                frag: Frag::Concat {
                    mid,
                    l: Box::new(lf),
                    r: Box::new(rf),
                },
            }
        }
        Regex::Alt(l, r) => {
            let lf = build(nfa, l, None, sets);
            let rf = build(nfa, r, None, sets);
            let acc = nfa.add_state();
            let into_l = nfa.add_eps(start, lf.start);
            let into_r = nfa.add_eps(start, rf.start);
            let out_l = nfa.add_eps(lf.acc, acc);
            let out_r = nfa.add_eps(rf.acc, acc);
            FragMeta {
                start,
                acc,
                frag: Frag::Alt {
                    into_l,
                    into_r,
                    out_l,
                    out_r,
                    l: Box::new(lf),
                    r: Box::new(rf),
                },
            }
        }
        Regex::Star(inner) => {
            let inf = build(nfa, inner, None, sets);
            let acc = nfa.add_state();
            let enter = nfa.add_eps(start, inf.start);
            let back = nfa.add_eps(inf.acc, start);
            let exit = nfa.add_eps(start, acc);
            FragMeta {
                start,
                acc,
                frag: Frag::Star {
                    enter,
                    exit,
                    back,
                    inner: Box::new(inf),
                },
            }
        }
    }
}

impl Thompson {
    /// The constructed NFA.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// Converts a parse tree of the fragment's regex `re` to the
    /// corresponding accepting trace, appending `k` after the fragment
    /// (continuation style).
    fn tree_to_trace(
        &self,
        meta: &FragMeta,
        re: &Regex,
        tree: &ParseTree,
        k: NfaTrace,
    ) -> Result<NfaTrace, TransformError> {
        let fail = |what: &str| {
            Err(TransformError::Custom(format!(
                "thompson: expected {what}, got {tree}"
            )))
        };
        match (&meta.frag, re, tree) {
            (Frag::Set { edges }, _, _) => match leaf_index(re, tree) {
                Some(leaf) => Ok(NfaTrace::step(edges.start + leaf, k)),
                None => fail("a leaf of the character set"),
            },
            (Frag::Eps { e }, _, ParseTree::Unit) => Ok(NfaTrace::eps_step(*e, k)),
            (Frag::Empty, _, _) => fail("no parse of ∅"),
            (Frag::Concat { mid, l, r }, Regex::Concat(rl, rr), ParseTree::Pair(tl, tr)) => {
                // Continuation: l-part, then the bridge ε, then r-part.
                let kr = self.tree_to_trace(r, rr, tr, k)?;
                self.tree_to_trace(l, rl, tl, NfaTrace::eps_step(*mid, kr))
            }
            (
                Frag::Alt {
                    into_l,
                    into_r,
                    out_l,
                    out_r,
                    l,
                    r,
                },
                Regex::Alt(rl, rr),
                ParseTree::Inj { index, tree },
            ) => match index {
                0 => Ok(NfaTrace::eps_step(
                    *into_l,
                    self.tree_to_trace(l, rl, tree, NfaTrace::eps_step(*out_l, k))?,
                )),
                1 => Ok(NfaTrace::eps_step(
                    *into_r,
                    self.tree_to_trace(r, rr, tree, NfaTrace::eps_step(*out_r, k))?,
                )),
                _ => fail("binary σ"),
            },
            (Frag::Star { .. }, Regex::Star(inner_re), ParseTree::Roll(_)) => {
                self.star_to_trace(meta, inner_re, tree, k)
            }
            _ => fail("a tree matching the fragment"),
        }
    }

    fn star_to_trace(
        &self,
        meta: &FragMeta,
        inner_re: &Regex,
        tree: &ParseTree,
        k: NfaTrace,
    ) -> Result<NfaTrace, TransformError> {
        let (enter, exit, back, inner) = match &meta.frag {
            Frag::Star {
                enter,
                exit,
                back,
                inner,
            } => (*enter, *exit, *back, inner),
            _ => unreachable!("star_to_trace on a star fragment"),
        };
        // List tree: roll (σ0 ()) | roll (σ1 (head, tail)).
        let inner_tree = match tree {
            ParseTree::Roll(t) => &**t,
            other => {
                return Err(TransformError::Custom(format!(
                    "thompson: star parse must be roll, got {other}"
                )))
            }
        };
        match inner_tree {
            ParseTree::Inj { index: 0, .. } => Ok(NfaTrace::eps_step(exit, k)),
            ParseTree::Inj {
                index: 1,
                tree: pair,
            } => match &**pair {
                ParseTree::Pair(head, tail) => {
                    let rest = self.star_to_trace(meta, inner_re, tail, k)?;
                    let after_head = NfaTrace::eps_step(back, rest);
                    Ok(NfaTrace::eps_step(
                        enter,
                        self.tree_to_trace(inner, inner_re, head, after_head)?,
                    ))
                }
                other => Err(TransformError::Custom(format!(
                    "thompson: cons must be a pair, got {other}"
                ))),
            },
            other => Err(TransformError::Custom(format!(
                "thompson: star parse must be σ0/σ1, got {other}"
            ))),
        }
    }

    /// Converts a trace back to a parse tree of the fragment's regex,
    /// returning the unconsumed remainder of the trace.
    fn trace_to_tree<'t>(
        &self,
        meta: &FragMeta,
        re: &Regex,
        trace: &'t NfaTrace,
    ) -> Result<(ParseTree, &'t NfaTrace), TransformError> {
        let fail = |what: &str| {
            Err(TransformError::Custom(format!(
                "thompson: malformed trace, expected {what}"
            )))
        };
        match (&meta.frag, re) {
            (Frag::Set { edges }, _) => match trace {
                NfaTrace::Step { transition, rest } if edges.contains(transition) => {
                    match leaf_tree(re, &mut (transition - edges.start)) {
                        Some(tree) => Ok((tree, rest)),
                        None => fail("a leaf of the character set"),
                    }
                }
                _ => fail("one of the fragment's labeled steps"),
            },
            (Frag::Eps { e }, Regex::Eps) => match trace {
                NfaTrace::EpsStep { eps, rest } if eps == e => Ok((ParseTree::Unit, rest)),
                _ => fail("the fragment's ε step"),
            },
            (Frag::Empty, Regex::Empty) => fail("no trace through ∅"),
            (Frag::Concat { mid, l, r }, Regex::Concat(rl, rr)) => {
                let (tl, after_l) = self.trace_to_tree(l, rl, trace)?;
                let after_mid = match after_l {
                    NfaTrace::EpsStep { eps, rest } if eps == mid => rest,
                    _ => return fail("the concat bridge ε"),
                };
                let (tr, rest) = self.trace_to_tree(r, rr, after_mid)?;
                Ok((ParseTree::pair(tl, tr), rest))
            }
            (
                Frag::Alt {
                    into_l,
                    into_r,
                    out_l,
                    out_r,
                    l,
                    r,
                },
                Regex::Alt(rl, rr),
            ) => match trace {
                NfaTrace::EpsStep { eps, rest } if eps == into_l => {
                    let (t, after) = self.trace_to_tree(l, rl, rest)?;
                    match after {
                        NfaTrace::EpsStep { eps, rest } if eps == out_l => {
                            Ok((ParseTree::inj(0, t), rest))
                        }
                        _ => fail("the left fan-in ε"),
                    }
                }
                NfaTrace::EpsStep { eps, rest } if eps == into_r => {
                    let (t, after) = self.trace_to_tree(r, rr, rest)?;
                    match after {
                        NfaTrace::EpsStep { eps, rest } if eps == out_r => {
                            Ok((ParseTree::inj(1, t), rest))
                        }
                        _ => fail("the right fan-in ε"),
                    }
                }
                _ => fail("an alternation branch ε"),
            },
            (Frag::Star { .. }, Regex::Star(inner_re)) => {
                self.star_trace_to_tree(meta, inner_re, trace)
            }
            _ => fail("a fragment matching the regex"),
        }
    }

    fn star_trace_to_tree<'t>(
        &self,
        meta: &FragMeta,
        inner_re: &Regex,
        trace: &'t NfaTrace,
    ) -> Result<(ParseTree, &'t NfaTrace), TransformError> {
        let (enter, exit, back, inner) = match &meta.frag {
            Frag::Star {
                enter,
                exit,
                back,
                inner,
            } => (enter, exit, back, inner),
            _ => unreachable!("called on a star fragment"),
        };
        match trace {
            NfaTrace::EpsStep { eps, rest } if eps == exit => {
                Ok((ParseTree::roll(ParseTree::inj(0, ParseTree::Unit)), rest))
            }
            NfaTrace::EpsStep { eps, rest } if eps == enter => {
                let (head, after) = self.trace_to_tree(inner, inner_re, rest)?;
                let after_back = match after {
                    NfaTrace::EpsStep { eps, rest } if eps == back => rest,
                    _ => {
                        return Err(TransformError::Custom(
                            "thompson: expected the star loop-back ε".to_owned(),
                        ))
                    }
                };
                let (tail, rest) = self.star_trace_to_tree(meta, inner_re, after_back)?;
                Ok((
                    ParseTree::roll(ParseTree::inj(1, ParseTree::pair(head, tail))),
                    rest,
                ))
            }
            _ => Err(TransformError::Custom(
                "thompson: expected a star enter/exit ε".to_owned(),
            )),
        }
    }
}

/// The position, left to right, of the leaf that `tree` picks in the
/// lone `Char` or all-`Char` alternation `re`.
fn leaf_index(re: &Regex, tree: &ParseTree) -> Option<usize> {
    match (re, tree) {
        (Regex::Char(c), ParseTree::Char(d)) if c == d => Some(0),
        (Regex::Alt(l, _), ParseTree::Inj { index: 0, tree }) => leaf_index(l, tree),
        (Regex::Alt(l, r), ParseTree::Inj { index: 1, tree }) => {
            Some(leaves(l) + leaf_index(r, tree)?)
        }
        _ => None,
    }
}

/// The number of leaves of a lone `Char` or all-`Char` alternation.
fn leaves(re: &Regex) -> usize {
    match re {
        Regex::Alt(l, r) => leaves(l) + leaves(r),
        _ => 1,
    }
}

/// The parse of `re`, a lone `Char` or all-`Char` alternation, that picks
/// its leaf number `n` (counted down as leaves are passed, left to right).
fn leaf_tree(re: &Regex, n: &mut usize) -> Option<ParseTree> {
    match re {
        Regex::Char(c) if *n == 0 => Some(ParseTree::Char(*c)),
        Regex::Char(_) => {
            *n -= 1;
            None
        }
        Regex::Alt(l, r) => match leaf_tree(l, n) {
            Some(t) => Some(ParseTree::inj(0, t)),
            None => leaf_tree(r, n).map(|t| ParseTree::inj(1, t)),
        },
        _ => None,
    }
}

/// The strong equivalence `R ≅ TraceN (N.init)` of Construction 4.11, as
/// checked transformers between the regex grammar and the trace grammar.
pub fn thompson_strong_equiv(alphabet: &Alphabet, re: &Regex) -> (Thompson, StrongEquiv) {
    let th = thompson(alphabet, re);
    let tg = th.nfa.trace_grammar();
    let regex_g = re.to_grammar();
    let trace_g = tg.trace(th.nfa.init());

    let th_f = th.clone();
    let tg_f = tg.clone();
    let re_f = re.clone();
    let fwd = Transformer::from_fn(
        "regex→trace",
        regex_g.clone(),
        trace_g.clone(),
        move |t| {
            let trace = th_f.tree_to_trace(&th_f.root, &re_f, t, NfaTrace::Stop)?;
            Ok(trace.to_parse_tree(&th_f.nfa, &tg_f, th_f.nfa.init()))
        },
    );

    let th_b = th.clone();
    let re_b = re.clone();
    let bwd = Transformer::from_fn("trace→regex", trace_g, regex_g, move |t| {
        let trace = NfaTrace::from_parse_tree(t, &th_b.nfa, &tg, th_b.nfa.init());
        let (tree, rest) = th_b.trace_to_tree(&th_b.root, &re_b, &trace)?;
        match rest {
            NfaTrace::Stop => Ok(tree),
            other => Err(TransformError::Custom(format!(
                "thompson: trailing trace {other}"
            ))),
        }
    });

    (th, StrongEquiv::new(WeakEquiv::new(fwd, bwd)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_regex;
    use crate::derivative::matches;
    use lambek_core::grammar::compile::CompiledGrammar;
    use lambek_core::theory::unambiguous::all_strings;

    #[test]
    fn thompson_preserves_language() {
        let s = Alphabet::abc();
        for src in ["a", "a*", "(a*b)|c", "ab|ba", "(ab)*", "a*b*", "ε", "∅"] {
            let re = parse_regex(&s, src).unwrap();
            let th = thompson(&s, &re);
            for w in all_strings(&s, 4) {
                assert_eq!(th.nfa().accepts(&w), matches(&re, &w), "{src} on {w}");
            }
        }
    }

    #[test]
    fn nfa_size_is_linear_in_regex_size() {
        let s = Alphabet::abc();
        for src in ["a", "(a|b)*c", "a*b*c*", "((a|b)*|c)*"] {
            let re = parse_regex(&s, src).unwrap();
            let th = thompson(&s, &re);
            assert!(
                th.nfa().num_states() <= 2 * re.size() + 2,
                "{src}: {} states for size {}",
                th.nfa().num_states(),
                re.size()
            );
        }
    }

    #[test]
    fn construction_4_11_strong_equivalence() {
        let s = Alphabet::abc();
        for src in [
            "a",
            "(a*b)|c",
            "ab|ab",
            "(a|ε)b",
            "(ab)*",
            "a|b|c",
            "(a|b)*c",
            "a|a",
            "(a|b)|(c|ab)",
        ] {
            let re = parse_regex(&s, src).unwrap();
            let (_, eq) = thompson_strong_equiv(&s, &re);
            let strings = all_strings(&s, 3);
            eq.check_on(&strings, 32)
                .unwrap_or_else(|e| panic!("{src}: {e}"));
            eq.check_counts_on(&strings, 32)
                .unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn ambiguity_is_preserved_by_thompson() {
        // ab|ab has two parses of "ab", and a|a two of "a" (one per leaf
        // of its set fragment); so must their trace grammars.
        let s = Alphabet::abc();
        for (src, w) in [("ab|ab", "ab"), ("a|a", "a")] {
            let re = parse_regex(&s, src).unwrap();
            let th = thompson(&s, &re);
            let tg = th.nfa().trace_grammar();
            let cg = CompiledGrammar::new(&tg.trace(th.nfa().init()));
            let amb = cg.count_parses(&s.parse_str(w).unwrap(), 8);
            assert_eq!(amb.count, 2, "{src} on {w}");
        }
    }

    #[test]
    fn a_char_alternation_is_one_set_fragment() {
        // k leaves: two states, k labeled edges, no ε-edge — not a tree
        // of k one-edge fragments joined by 4(k−1) ε-edges.
        let abc = Alphabet::abc();
        let wide = Alphabet::from_chars("abcdefghijklmnopqrstuvwxyz0123456789");
        let leaves = |sigma: &Alphabet| {
            (0..sigma.len())
                .map(|i| Regex::Char(Symbol::from_index(i)))
                .reduce(Regex::alt)
                .unwrap()
        };
        for (sigma, re) in [
            (&abc, parse_regex(&abc, "a|b|c").unwrap()),
            (&abc, leaves(&abc)),
            (&wide, leaves(&wide)),
        ] {
            let k = sigma.len();
            let th = thompson(sigma, &re);
            let nfa = th.nfa();
            assert_eq!(nfa.num_states(), 2, "k = {k}");
            assert_eq!(nfa.transitions().len(), k, "k = {k}");
            assert_eq!(nfa.eps_transitions().len(), 0, "k = {k}");
        }
    }

    #[test]
    fn fig3_term_maps_to_fig5_style_trace() {
        // The Fig. 3 parse of "ab" in (a*b)|c maps to an accepting trace.
        let s = Alphabet::abc();
        let re = parse_regex(&s, "(a*b)|c").unwrap();
        let (th, eq) = thompson_strong_equiv(&s, &re);
        let cg = CompiledGrammar::new(&re.to_grammar());
        let w = s.parse_str("ab").unwrap();
        let parses = cg.parses(&w, 8);
        assert_eq!(parses.trees.len(), 1);
        let trace_tree = eq.weak().fwd.apply_checked(&parses.trees[0]).unwrap();
        assert_eq!(trace_tree.flatten(), w);
        let _ = th;
    }
}
