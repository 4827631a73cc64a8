//! Adversarial suite for incremental certification: inject one fault
//! into the middle of a stream — a corrupted shift leaf, a rewritten
//! reduction, a bogus injection tag, a shifted lexeme span, a wrong
//! lexeme text or rule — and prove the per-step checkers catch it *at
//! the step it happens*: the fault is recorded the moment the corrupted
//! shift/reduce/lexeme executes, and no fault ever survives to an
//! accepting `finish`.
//!
//! The honesty statement for reduction *substitution* is differential:
//! a [`SabotageLr::ReduceAs`] swap goes undetected exactly when the
//! substituted reduction is genuinely valid — so any tree an
//! undetected run accepts must still pass the whole-tree `validate`.

use lambek_cfg::dyck::{dyck_cfg, Parens};
use lambek_core::grammar::parse_tree::validate;
use lambek_engine::{Engine, PipelineSpec};
use lambek_lex::demo::arith_spec;
use lambek_lex::{CertifiedLexer, SabotageLex};
use lambek_lr::{CertifiedLrParser, LrOutcome, SabotageLr};

fn dyck() -> (CertifiedLrParser, lambek_core::alphabet::Alphabet) {
    let p = Parens::new();
    let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).expect("Dyck is LALR(1)");
    (parser, p.alphabet)
}

#[test]
fn corrupted_shift_leaves_are_caught_at_that_shift() {
    let (parser, sigma) = dyck();
    let w = sigma.parse_str("(()())").unwrap();
    let syms: Vec<_> = w.iter().collect();
    for k in 0..syms.len() {
        let bogus = syms.iter().copied().find(|s| *s != syms[k]).unwrap();
        let mut stream = parser.stream();
        stream.sabotage(SabotageLr::ShiftLeaf {
            shift: k,
            sym: bogus,
        });
        for (i, sym) in syms.iter().enumerate() {
            stream.push(*sym);
            if i < k {
                assert!(stream.fault().is_none(), "no fault before shift {k}");
                assert!(stream.is_viable());
            } else {
                assert!(
                    stream.fault().is_some(),
                    "shift {k} corrupted at push {i}: must be caught immediately"
                );
                assert!(!stream.is_viable());
                assert!(!stream.would_accept());
            }
        }
        // The exact step: the fault fired at shift k, i.e. after the
        // machine performed k+1 shifts (counters increment before the
        // check runs).
        assert_eq!(stream.step_counts().0, k + 1, "caught at shift {k}");
        assert!(
            stream.finish().is_err(),
            "a shift fault must never survive to finish"
        );
    }
}

#[test]
fn corrupted_reduction_tags_are_caught_at_that_reduction() {
    let (parser, sigma) = dyck();
    let w = sigma.parse_str("(()())").unwrap();
    let baseline = match parser.parse(&w).unwrap() {
        LrOutcome::Accept(tree) => tree,
        LrOutcome::Reject(r) => panic!("(()()) is balanced: {r}"),
    };
    let mut fired = 0usize;
    for k in 0..32 {
        let mut stream = parser.stream();
        // Tag 99 indexes no alternative of any Dyck nonterminal: if
        // reduce k happens at all, the corruption is invalid.
        stream.sabotage(SabotageLr::ReduceTag { reduce: k, tag: 99 });
        for sym in w.iter() {
            stream.push(sym);
            if let Some(fault) = stream.fault() {
                // Caught at the very reduction that was corrupted.
                assert_eq!(
                    stream.step_counts().1,
                    k + 1,
                    "fault {fault} caught at reduce {k}, not later"
                );
            }
        }
        match stream.finish() {
            Err(_) => fired += 1, // caught mid-stream or at the EOF reductions
            Ok(LrOutcome::Accept(tree)) => {
                // Reduce k never happened (k ≥ total reductions): the
                // run must be byte-identical to the honest one.
                assert_eq!(tree, baseline, "sabotage at reduce {k} never fired");
            }
            Ok(LrOutcome::Reject(r)) => panic!("(()()) must not reject: {r}"),
        }
    }
    assert!(fired >= 5, "the corruption must actually fire for small k");
}

#[test]
fn substituted_reductions_are_undetected_only_when_genuinely_valid() {
    let (parser, sigma) = dyck();
    let grammar = parser.grammar().clone();
    let num_productions = parser.table().num_productions();
    for input in ["()", "(())", "(()())"] {
        let w = sigma.parse_str(input).unwrap();
        for k in 0..16 {
            // Production 0 is the synthetic S' → S start rule; only real
            // productions are legal substitution targets.
            for p in 1..num_productions {
                let mut stream = parser.stream();
                stream.sabotage(SabotageLr::ReduceAs {
                    reduce: k,
                    production: p,
                });
                stream.push_all(&w);
                match stream.finish() {
                    // Caught — at the substituted reduction or at one of
                    // the claim checks it corrupted downstream.
                    Err(_) => {}
                    // Rejected — the substitution broke the table run
                    // (e.g. popped past the stack); nothing unsound
                    // escaped.
                    Ok(LrOutcome::Reject(_)) => {}
                    // Undetected: the differential honesty obligation —
                    // the accepted tree must be a *genuinely valid*
                    // derivation of the input.
                    Ok(LrOutcome::Accept(tree)) => {
                        validate(&tree.to_parse_tree(), &grammar, &w).unwrap_or_else(|e| {
                            panic!(
                                "undetected substitution (reduce {k} as production {p}) \
                                 on {input:?} produced an invalid tree: {e}"
                            )
                        });
                    }
                }
            }
        }
    }
}

#[test]
fn corrupted_lexemes_are_caught_at_their_munch_boundary() {
    let lexer = CertifiedLexer::compile(arith_spec());
    let input = "12+(345+6)+7 ";
    let baseline = lexer.automaton().lex_raw(input).unwrap();
    for k in 0..baseline.len() {
        for sab in [
            SabotageLex::ShiftSpan { token: k },
            SabotageLex::WrongText {
                token: k,
                text: "zz".to_owned(),
            },
            SabotageLex::WrongRule { token: k, rule: 99 },
        ] {
            let mut stream = lexer.automaton().stream();
            stream.sabotage(sab.clone());
            let mut cert = lexer.certifier();
            let mut caught_at = None;
            let mut emitted = 0usize;
            for c in input.chars() {
                let resolved = stream.push(c).expect("arith text lexes");
                for t in resolved {
                    if caught_at.is_none() && cert.check(stream.raw_input(), &t).is_err() {
                        caught_at = Some(emitted);
                    }
                    emitted += 1;
                }
            }
            for t in stream.finish().expect("arith text lexes") {
                if caught_at.is_none() && cert.check(input, &t).is_err() {
                    caught_at = Some(emitted);
                }
                emitted += 1;
            }
            assert_eq!(emitted, baseline.len(), "sabotage never drops tokens");
            assert_eq!(
                caught_at,
                Some(k),
                "{sab:?} must be caught exactly at token {k}"
            );
        }
    }
}

#[test]
fn stream_parser_catches_lex_sabotage_when_the_token_resolves() {
    let engine = Engine::new();
    let spec = PipelineSpec::arith_lexed();
    const K: usize = 1;
    let mut stream = engine.stream(&spec).unwrap();
    stream.sabotage_lex(SabotageLex::WrongText {
        token: K,
        text: "zz".to_owned(),
    });
    for c in "12+(345+6)".chars() {
        stream.push_char(c);
        let resolved = stream.tokens().unwrap().len();
        assert_eq!(
            stream.lex_fault().is_some(),
            resolved > K,
            "the fault appears exactly when token {K} resolves"
        );
        if resolved > K {
            assert!(!stream.is_viable());
            assert!(!stream.would_accept());
        }
    }
    assert!(
        stream.lex_fault().is_some(),
        "token {K} resolved mid-stream"
    );
    assert!(
        stream.finish().is_err(),
        "a lexer fault must surface as a contract violation, not an outcome"
    );
}

#[test]
fn stream_parser_catches_lr_sabotage_in_both_modes() {
    let engine = Engine::new();
    // Symbol-level LR stream.
    let sigma = Parens::new().alphabet;
    let close = sigma.symbol(")").unwrap();
    let mut stream = engine.stream(&PipelineSpec::dyck_cfg()).unwrap();
    // Shift 1 of `(())` really shifts `(` — claim it shifted `)`.
    stream.sabotage_lr(SabotageLr::ShiftLeaf {
        shift: 1,
        sym: close,
    });
    let w = sigma.parse_str("(())").unwrap();
    for (i, sym) in w.iter().enumerate() {
        stream.push(sym);
        assert_eq!(
            stream.lr_fault().is_some(),
            i >= 1,
            "caught exactly at the corrupted shift"
        );
    }
    assert!(stream.finish().is_err());

    // Character-level lexed-LR stream: corrupt the first reduction's tag.
    let mut stream = engine.stream(&PipelineSpec::arith_lexed()).unwrap();
    stream.sabotage_lr(SabotageLr::ReduceTag { reduce: 0, tag: 99 });
    stream.push_chars("12+3");
    assert!(
        stream.finish().is_err(),
        "the corrupted reduction must not survive the lexed finish"
    );
}
