//! Classical grammar analysis: FIRST sets.
//!
//! The standard fixpoint over a [`Cfg`] that table-driven parser
//! constructions start from (the LALR(1) builder in `lambek-lr` seeds
//! its lookaheads from it). It complements the nullability fixpoint of
//! [`nullable_set`]: [`first_sets`] gives, for each nonterminal `A`, the
//! terminals `c` such that `A ⇒* c·…` (ε-membership is
//! [`nullable_set`]'s job, so the sets here contain terminals only).
//! The fixpoint is exact (least), independent of reachability, and
//! linear in practice for the grammar sizes this workspace handles.

use std::collections::BTreeSet;

use lambek_core::alphabet::Symbol;

use crate::earley::nullable_set;
use crate::grammar::{Cfg, GSym};

/// FIRST sets: `first[n]` is the set of terminals that can begin a string
/// derived from nonterminal `n`. ε is *not* represented here — a
/// nonterminal derives ε exactly when [`nullable_set`] says so.
///
/// # Examples
///
/// The Fig. 15 expression grammar: `FIRST(Exp) = FIRST(Atom) = {NUM, (}`.
///
/// ```
/// use lambek_cfg::analysis::first_sets;
/// use lambek_cfg::expr::exp_cfg;
/// use lambek_automata::lookahead::ArithTokens;
///
/// let t = ArithTokens::new();
/// let first = first_sets(&exp_cfg(&t));
/// assert!(first[0].contains(&t.num) && first[0].contains(&t.lp));
/// assert_eq!(first[0], first[1]);
/// ```
pub fn first_sets(cfg: &Cfg) -> Vec<BTreeSet<Symbol>> {
    let nullable = nullable_set(cfg);
    let mut first: Vec<BTreeSet<Symbol>> = vec![BTreeSet::new(); cfg.num_nonterminals()];
    loop {
        let mut changed = false;
        for nt in 0..cfg.num_nonterminals() {
            for prod in cfg.alternatives(nt) {
                for sym in &prod.rhs {
                    match sym {
                        GSym::T(c) => {
                            changed |= first[nt].insert(*c);
                            break;
                        }
                        GSym::N(m) => {
                            // first[nt] ⊇ first[m]; borrow-split via clone
                            // of the (small) source set.
                            let src = first[*m].clone();
                            for c in src {
                                changed |= first[nt].insert(c);
                            }
                            if !nullable[*m] {
                                break;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            return first;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyck::{dyck_cfg, Parens};
    use crate::expr::exp_cfg;
    use crate::grammar::anbn;
    use lambek_automata::lookahead::ArithTokens;
    use lambek_core::alphabet::Alphabet;

    /// Index constants matching `exp_cfg`: 0 = Exp, 1 = Atom.
    const EXP: usize = 0;
    const ATOM: usize = 1;

    #[test]
    fn fig15_first_sets() {
        let t = ArithTokens::new();
        let first = first_sets(&exp_cfg(&t));
        let expected: BTreeSet<_> = [t.num, t.lp].into_iter().collect();
        assert_eq!(first[EXP], expected, "FIRST(Exp) = {{NUM, (}}");
        assert_eq!(first[ATOM], expected, "FIRST(Atom) = {{NUM, (}}");
    }

    #[test]
    fn dyck_first_sets() {
        let p = Parens::new();
        let first = first_sets(&dyck_cfg(&p));
        assert_eq!(first[0], [p.open].into_iter().collect());
    }

    #[test]
    fn anbn_first_sets() {
        let s = Alphabet::abc();
        let (a, b) = (s.symbol("a").unwrap(), s.symbol("b").unwrap());
        assert_eq!(first_sets(&anbn(&s, a, b))[0], [a].into_iter().collect());
    }
}
