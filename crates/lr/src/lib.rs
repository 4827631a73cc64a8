//! # lambek-lr — certified LR(1) parsing for the deterministic fragment
//!
//! The paper's verified parsers (Theorems 4.13/4.14) go through
//! automata constructions; the general CFG baseline in `lambek-cfg` is
//! Earley, worst-case cubic. This crate opens the *deterministic*
//! context-free fragment as a fast serving path: Knuth's LR(1) item-set
//! construction with LALR-style state merging, dense row-major
//! ACTION/GOTO tables (the same flat-`Vec` idiom as the automata
//! layer's DFA tables), and a linear-time shift-reduce driver that
//! records each derivation as a flat postorder
//! [`ReductionLog`](lambek_core::grammar::parse_tree::ReductionLog) —
//! the μ-regular parse tree, one fixed-size entry per shift and per
//! reduction, materialized only on request.
//!
//! The paper's contract is kept at the subsystem boundary:
//!
//! * grammars with unresolvable conflicts are rejected *at compile
//!   time* with a structured [`LrConflictReport`] pointing at the
//!   offending item sets (the same notion of "deterministic" the Earley
//!   baseline's ambiguity reporting uses);
//! * every derivation a [`CertifiedLrParser`] emits — one-shot or via
//!   the push-mode [`LrStream`] — is certified against the grammar's
//!   μ-regular encoding *incrementally*: each shift and each reduction
//!   is checked as it happens via interned grammar-id comparisons, and
//!   the per-step checks compose to the whole-tree `validate` contract
//!   (kept verbatim behind [`CertifiedLrParser::parse_full`] /
//!   [`CertifiedLrParser::stream_full`] for the differential suites),
//!   so intrinsic verification is preserved end to end at O(1) cost per
//!   step.
//!
//! ```
//! use lambek_automata::lookahead::ArithTokens;
//! use lambek_cfg::expr::{exp_cfg, exp_grammar};
//! use lambek_core::grammar::parse_tree::validate;
//! use lambek_lr::CertifiedLrParser;
//!
//! let t = ArithTokens::new();
//! let parser = CertifiedLrParser::compile(&exp_cfg(&t)).unwrap();
//! // NUM + ( NUM + NUM )
//! let w = [t.num, t.add, t.lp, t.num, t.add, t.num, t.rp]
//!     .into_iter()
//!     .collect();
//! let log = parser.parse(&w).unwrap().accepted().cloned().unwrap();
//! validate(&log.to_parse_tree(), &exp_grammar(&t), &w).unwrap(); // already certified
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod certified;
mod driver;
mod items;
pub mod probes;
mod table;

pub use certified::{
    CertifiedLrParser, CertifyError, LrOutcome, LrResumeError, LrSink, LrStream, LrStreamState,
};
pub use driver::{ClaimRef, LrReject, SabotageLr};
pub use probes::LrProbes;
pub use table::{Action, ConflictKind, LrConflict, LrConflictReport, LrTable, ProductionRef};

#[cfg(test)]
mod tests {
    use super::*;
    use lambek_automata::lookahead::ArithTokens;
    use lambek_cfg::dyck::{dyck_cfg, dyck_grammar, parse_dyck_string, Parens};
    use lambek_cfg::expr::{exp_cfg, parse_exp_string};
    use lambek_cfg::grammar::{anbn, Cfg, GSym, Production};
    use lambek_core::alphabet::Alphabet;
    use lambek_core::grammar::parse_tree::validate;
    use lambek_core::theory::unambiguous::all_strings;

    #[test]
    fn dyck_compiles_and_agrees_with_recursive_descent() {
        let p = Parens::new();
        let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).unwrap();
        for w in all_strings(&p.alphabet, 8) {
            let rd = parse_dyck_string(&p, &w);
            let out = parser.parse(&w).unwrap();
            assert_eq!(out.is_accept(), rd.is_some(), "{w}");
            if let Some(log) = out.accepted() {
                // LR derives the exact same unique tree the
                // recursive-descent parser does.
                let tree = log.to_parse_tree();
                assert_eq!(tree, rd.unwrap(), "{w}");
                validate(&tree, &dyck_grammar(&p), &w).unwrap();
            }
            assert_eq!(parser.recognizes(&w), out.is_accept(), "{w}");
        }
    }

    #[test]
    fn expression_grammar_compiles_and_matches_ll1() {
        let t = ArithTokens::new();
        let parser = CertifiedLrParser::compile(&exp_cfg(&t)).unwrap();
        for w in all_strings(&t.alphabet, 5) {
            let ll1 = parse_exp_string(&t, &w);
            let out = parser.parse(&w).unwrap();
            assert_eq!(out.is_accept(), ll1.is_some(), "{w}");
            if let Some(log) = out.accepted() {
                assert_eq!(log.to_parse_tree(), ll1.unwrap(), "{w}");
            }
        }
    }

    #[test]
    fn anbn_is_lr1() {
        let s = Alphabet::abc();
        let (a, b) = (s.symbol("a").unwrap(), s.symbol("b").unwrap());
        let parser = CertifiedLrParser::compile(&anbn(&s, a, b)).unwrap();
        for n in 0..6 {
            let w = s
                .parse_str(&format!("{}{}", "a".repeat(n), "b".repeat(n)))
                .unwrap();
            assert!(parser.recognizes(&w), "a^{n} b^{n}");
        }
        for no in ["a", "b", "ba", "aab", "abb"] {
            assert!(!parser.recognizes(&s.parse_str(no).unwrap()), "{no}");
        }
    }

    #[test]
    fn left_recursion_is_fine() {
        // E ::= E a | a — fatal for LL and recursive descent, trivial
        // for LR.
        let s = Alphabet::abc();
        let a = s.symbol("a").unwrap();
        let cfg = Cfg::new(
            s.clone(),
            vec!["E".to_owned()],
            vec![vec![
                Production {
                    rhs: vec![GSym::N(0), GSym::T(a)],
                },
                Production {
                    rhs: vec![GSym::T(a)],
                },
            ]],
            0,
        );
        let parser = CertifiedLrParser::compile(&cfg).unwrap();
        for n in 1..8 {
            let w = s.parse_str(&"a".repeat(n)).unwrap();
            let log = parser.parse(&w).unwrap().accepted().cloned().unwrap();
            validate(&log.to_parse_tree(), &cfg.to_lambek(), &w).unwrap();
        }
        assert!(!parser.recognizes(&s.parse_str("").unwrap()));
    }

    #[test]
    fn ambiguous_grammar_is_rejected_with_item_sets() {
        // S ::= S S | a — ambiguous, so necessarily conflicted.
        let s = Alphabet::abc();
        let a = s.symbol("a").unwrap();
        let cfg = Cfg::new(
            s.clone(),
            vec!["S".to_owned()],
            vec![vec![
                Production {
                    rhs: vec![GSym::N(0), GSym::N(0)],
                },
                Production {
                    rhs: vec![GSym::T(a)],
                },
            ]],
            0,
        );
        let report = CertifiedLrParser::compile(&cfg).unwrap_err();
        assert!(!report.conflicts.is_empty());
        let c = &report.conflicts[0];
        assert_eq!(c.kind, ConflictKind::ShiftReduce);
        assert!(
            c.items.iter().any(|i| i.contains('·')),
            "items must show dotted productions: {:?}",
            c.items
        );
        let text = format!("{report}");
        assert!(text.contains("not LALR(1)"), "{text}");
        assert!(text.contains("shift/reduce"), "{text}");
    }

    #[test]
    fn reduce_reduce_conflict_is_reported() {
        // S ::= A | B ; A ::= a ; B ::= a — two reductions under $.
        let s = Alphabet::abc();
        let a = s.symbol("a").unwrap();
        let cfg = Cfg::new(
            s.clone(),
            vec!["S".to_owned(), "A".to_owned(), "B".to_owned()],
            vec![
                vec![
                    Production {
                        rhs: vec![GSym::N(1)],
                    },
                    Production {
                        rhs: vec![GSym::N(2)],
                    },
                ],
                vec![Production {
                    rhs: vec![GSym::T(a)],
                }],
                vec![Production {
                    rhs: vec![GSym::T(a)],
                }],
            ],
            0,
        );
        let report = CertifiedLrParser::compile(&cfg).unwrap_err();
        assert!(report
            .conflicts
            .iter()
            .any(|c| c.kind == ConflictKind::ReduceReduce));
        assert_eq!(report.conflicts[0].lookahead, "$");
    }

    #[test]
    fn rejection_reports_position_and_expectations() {
        let p = Parens::new();
        let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).unwrap();
        let w = p.alphabet.parse_str("())").unwrap();
        let LrOutcome::Reject(r) = parser.parse(&w).unwrap() else {
            panic!("()) is unbalanced");
        };
        assert_eq!(r.at, 2, "the second close paren is the offender");
        // LALR performs its pending reductions before detecting the
        // error, so the reported state is the fully unwound one — it
        // expects end of input (or nothing), never the bad symbol.
        assert!(r.expected.contains(&"$".to_owned()), "{:?}", r.expected);
        assert!(!r.expected.contains(&")".to_owned()), "{:?}", r.expected);
        let text = format!("{r}");
        assert!(text.contains("position 2"), "{text}");
    }

    #[test]
    fn stream_tracks_viability_and_acceptance() {
        let p = Parens::new();
        let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).unwrap();
        let mut stream = parser.stream();
        assert!(stream.is_empty() && stream.would_accept(), "ε is balanced");
        let w = p.alphabet.parse_str("(())").unwrap();
        let expected_accepts = [false, false, false, true];
        for (i, sym) in w.iter().enumerate() {
            assert!(stream.push(sym), "every prefix of (()) is viable");
            assert_eq!(stream.would_accept(), expected_accepts[i], "prefix {i}");
        }
        assert_eq!(stream.len(), 4);
        assert!(stream.pending() > 0);
        let log = stream.finish().unwrap().accepted().cloned().unwrap();
        assert_eq!(log.to_parse_tree().flatten(), w);
    }

    #[test]
    fn stream_remembers_the_first_rejection() {
        let p = Parens::new();
        let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).unwrap();
        let mut stream = parser.stream();
        let w = p.alphabet.parse_str(")(").unwrap();
        assert!(!stream.push(w[0]), "a lone close paren kills viability");
        assert!(!stream.is_viable());
        assert!(!stream.push(w[1]));
        assert!(!stream.would_accept());
        assert_eq!(stream.input(), &w);
        let LrOutcome::Reject(r) = stream.finish().unwrap() else {
            panic!(")(... is unbalanced");
        };
        assert_eq!(r.at, 0);
    }

    #[test]
    fn table_introspection() {
        let p = Parens::new();
        let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).unwrap();
        let table = parser.table();
        assert!(table.num_states() > 1);
        assert_eq!(table.num_terminals(), 3, "( , ) and $");
        assert_eq!(table.eof_column(), 2);
        assert_eq!(table.num_productions(), 3, "S'→S, nil, bal");
        let bal = table.production(2);
        assert_eq!((bal.nt, bal.alt, bal.rhs_len), (0, 1, 4));
        // State 0 shifts '(' and reduces nil under ')'... under $ at least.
        assert!(matches!(table.action(0, 0), Action::Shift(_)));
        assert!(matches!(
            table.action(0, table.eof_column()),
            Action::Reduce(_)
        ));
    }

    #[test]
    fn foreign_symbols_are_rejected_not_aliased() {
        // Regression: a symbol index ≥ alphabet.len() must be rejected —
        // an unchecked table lookup would alias the $ column (index ==
        // len) or a neighboring state's row (index > len) and could
        // silently accept garbage.
        use lambek_core::alphabet::{GString, Symbol};
        let p = Parens::new();
        let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).unwrap();
        let eof_alias = Symbol::from_index(p.alphabet.len());
        for w in [
            GString::from_symbols(vec![eof_alias]),
            GString::from_symbols(vec![p.open, p.close, eof_alias]),
            GString::from_symbols(vec![p.open, p.close, eof_alias, p.close]),
            GString::from_symbols(vec![Symbol::from_index(7)]),
        ] {
            assert!(!parser.recognizes(&w), "{w}");
            let outcome = parser.parse(&w).expect("reject, not a certify error");
            assert!(!outcome.is_accept(), "{w}");
            let mut stream = parser.stream();
            for sym in w.iter() {
                stream.push(sym); // must not panic
            }
            assert!(!stream.would_accept(), "{w}");
            assert!(!stream.finish().unwrap().is_accept(), "{w}");
        }
    }

    #[test]
    fn rejections_box_uniformly_as_errors() {
        // LrReject implements Error like CertifyError and
        // LrConflictReport do, so engine callers can box any of the
        // subsystem's failures behind one `dyn Error`.
        let p = Parens::new();
        let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).unwrap();
        let w = p.alphabet.parse_str(")").unwrap();
        let LrOutcome::Reject(r) = parser.parse(&w).unwrap() else {
            panic!(") is unbalanced");
        };
        let boxed: Box<dyn std::error::Error> = Box::new(r);
        assert!(boxed.to_string().contains("rejected at position 0"));
    }

    #[test]
    fn parser_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CertifiedLrParser>();
        assert_send_sync::<LrStream>();
        let p = Parens::new();
        let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).unwrap();
        let clone = parser.clone();
        let w = p.alphabet.parse_str("()").unwrap();
        assert_eq!(parser.recognizes(&w), clone.recognizes(&w));
    }
}
