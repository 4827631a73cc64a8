//! Property suite for the certified LR subsystem against the Earley
//! baseline: on randomly generated LR-compatible grammars (and on the
//! workspace's deterministic standards), LR accept/reject agrees with
//! `earley_recognize`, every LR tree passes the core derivation checker,
//! and the two layers agree on what "deterministic" means — a grammar
//! whose tables build conflict-free never gets an ambiguity report from
//! Earley.
//!
//! Every accepted reduction log is also checked against the tree it
//! materializes: its O(1) size and yield length equal the tree's, and
//! reading the tree back gives the same log — which is also what the
//! Earley fallback's tree reads back to on LALR grammars.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lambek_automata::gen::{random_arith, random_dyck};
use lambek_automata::lookahead::ArithTokens;
use lambek_cfg::dyck::{dyck_cfg, Parens};
use lambek_cfg::earley::{earley_parse, earley_recognize, EarleyParse};
use lambek_cfg::expr::exp_cfg;
use lambek_cfg::grammar::{Cfg, GSym, Production};
use lambek_core::alphabet::{Alphabet, GString, Symbol};
use lambek_core::grammar::expr::Grammar;
use lambek_core::grammar::parse_tree::{validate, ParseTree, ReductionLog};
use lambek_core::theory::unambiguous::all_strings;
use lambek_lr::CertifiedLrParser;

/// A small random CFG over {a, b, c}: 1–3 nonterminals, 1–3 alternatives
/// each, RHS length 0–3 with a terminal bias. Some are LALR(1), some are
/// not — the property handles both sides.
fn random_cfg(seed: u64) -> Cfg {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma = Alphabet::abc();
    let num_nt = rng.gen_range(1..4);
    let mut productions = Vec::new();
    for _ in 0..num_nt {
        let alts = rng.gen_range(1..4);
        let mut ps = Vec::new();
        for _ in 0..alts {
            let len = rng.gen_range(0..4);
            let rhs = (0..len)
                .map(|_| {
                    if rng.gen_range(0..3) == 0 {
                        GSym::N(rng.gen_range(0..num_nt))
                    } else {
                        GSym::T(Symbol::from_index(rng.gen_range(0..sigma.len())))
                    }
                })
                .collect();
            ps.push(Production { rhs });
        }
        productions.push(ps);
    }
    Cfg::new(
        sigma,
        (0..num_nt).map(|i| format!("N{i}")).collect(),
        productions,
        0,
    )
}

/// The log ↔ tree correspondence on one accepted parse of `w`: the
/// materialized tree validates, the log's O(1) counters equal the
/// tree's, and the tree reads back to the same log. Returns the tree.
fn check_log(log: &ReductionLog, g: &Grammar, w: &GString) -> Result<ParseTree, TestCaseError> {
    let tree = log.to_parse_tree();
    validate(&tree, g, w).expect("certified tree");
    prop_assert_eq!(log.size(), tree.size(), "{}", w);
    prop_assert_eq!(log.yield_len(), tree.flatten().len(), "{}", w);
    prop_assert_eq!(
        ReductionLog::from_parse_tree(&tree),
        Some(log.clone()),
        "{}",
        w
    );
    Ok(tree)
}

/// Mutates a string by flipping one random position to a random symbol.
fn mutate(w: &GString, alphabet_len: usize, seed: u64) -> GString {
    if w.is_empty() {
        return w.clone();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let pos = rng.gen_range(0..w.len());
    let mut out: Vec<_> = w.iter().collect();
    out[pos] = Symbol::from_index(rng.gen_range(0..alphabet_len));
    GString::from_symbols(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The core agreement property: whatever a random grammar compiles
    /// to, the LR subsystem and the Earley baseline answer exhaustively
    /// alike on short strings; conflict-free tables imply Earley finds
    /// every derivation unique, and the unique trees coincide.
    #[test]
    fn lr_agrees_with_earley_on_random_grammars(seed in 0u64..400) {
        let cfg = random_cfg(seed);
        let sigma = cfg.alphabet().clone();
        match CertifiedLrParser::compile(&cfg) {
            Ok(parser) => {
                let g = cfg.to_lambek();
                for w in all_strings(&sigma, 4) {
                    let expected = earley_recognize(&cfg, &w);
                    prop_assert_eq!(parser.recognizes(&w), expected, "{} on {}", seed, &w);
                    let outcome = parser.parse(&w).expect("certification never fails");
                    prop_assert_eq!(outcome.is_accept(), expected);
                    if let Some(log) = outcome.accepted() {
                        // Intrinsic: the tree validates against the
                        // μ-regular grammar and the actual input.
                        let tree = check_log(log, &g, &w)?;
                        // Determinism agreement: a conflict-free grammar
                        // is unambiguous, so Earley must report Unique —
                        // and uniqueness forces the same tree, which the
                        // fallback's boundary conversion reads back to
                        // the LR run's own log.
                        match earley_parse(&cfg, &w) {
                            EarleyParse::Unique(et) => {
                                prop_assert_eq!(&et, &tree, "{}", &w);
                                prop_assert_eq!(
                                    ReductionLog::from_parse_tree(&et),
                                    Some(log.clone()),
                                    "{}",
                                    &w
                                );
                            }
                            other => prop_assert!(
                                false,
                                "LR-deterministic grammar, Earley said {:?} on {}",
                                other,
                                &w
                            ),
                        }
                    }
                }
            }
            Err(report) => {
                // The rejection is structured: at least one conflict,
                // each pointing at a state's item set.
                prop_assert!(!report.conflicts.is_empty());
                prop_assert!(report.conflicts.iter().all(|c| !c.items.is_empty()));
            }
        }
    }

    /// Dyck at scale: random balanced words (and mutations) through the
    /// certified LR parser vs Earley, with tree validation.
    #[test]
    fn lr_dyck_vs_earley_on_random_inputs(pairs in 1usize..40, seed in 0u64..200) {
        let p = Parens::new();
        let cfg = dyck_cfg(&p);
        let parser = CertifiedLrParser::compile(&cfg).expect("Dyck is LALR(1)");
        let g = cfg.to_lambek();
        let balanced = random_dyck(pairs, seed);
        for w in [balanced.clone(), mutate(&balanced, 2, seed ^ 0xD1CE)] {
            let expected = earley_recognize(&cfg, &w);
            prop_assert_eq!(parser.recognizes(&w), expected, "{}", &w);
            let outcome = parser.parse(&w).expect("certification never fails");
            prop_assert_eq!(outcome.is_accept(), expected);
            if let Some(log) = outcome.accepted() {
                check_log(log, &g, &w)?;
            }
        }
    }

    /// Expressions at scale: random arithmetic (and mutations) through
    /// the certified LR parser vs Earley, with tree validation.
    #[test]
    fn lr_expr_vs_earley_on_random_inputs(
        atoms in 1usize..8,
        depth in 0usize..3,
        seed in 0u64..200,
    ) {
        let t = ArithTokens::new();
        let cfg = exp_cfg(&t);
        let parser = CertifiedLrParser::compile(&cfg).expect("Fig. 15 is LALR(1)");
        let g = cfg.to_lambek();
        let expr = random_arith(atoms, depth, seed);
        for w in [expr.clone(), mutate(&expr, 4, seed ^ 0xFACE)] {
            let expected = earley_recognize(&cfg, &w);
            prop_assert_eq!(parser.recognizes(&w), expected, "{}", &w);
            let outcome = parser.parse(&w).expect("certification never fails");
            prop_assert_eq!(outcome.is_accept(), expected);
            if let Some(log) = outcome.accepted() {
                check_log(log, &g, &w)?;
            }
        }
    }

    /// The push-mode stream is pointwise faithful: after each symbol,
    /// `would_accept` equals the one-shot recognizer on the prefix, and
    /// the finished stream certifies the same tree as the one-shot parse.
    #[test]
    fn lr_stream_is_pointwise_faithful(pairs in 1usize..24, seed in 0u64..100) {
        let p = Parens::new();
        let cfg = dyck_cfg(&p);
        let parser = CertifiedLrParser::compile(&cfg).expect("Dyck is LALR(1)");
        let w = random_dyck(pairs, seed);
        let mut stream = parser.stream();
        for (i, sym) in w.iter().enumerate() {
            stream.push(sym);
            let prefix = w.substring(0, i + 1);
            prop_assert_eq!(stream.would_accept(), parser.recognizes(&prefix), "prefix {}", i);
        }
        let streamed = stream.finish().expect("certification never fails");
        let oneshot = parser.parse(&w).expect("certification never fails");
        prop_assert_eq!(streamed.accepted(), oneshot.accepted());
    }
}
