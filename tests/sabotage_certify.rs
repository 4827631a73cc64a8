//! Adversarial suite for incremental certification, by artifact
//! corruption. The untrusted artifacts are the LALR table and the lexer
//! DFA; their certifiers (`CertTables`, read from the grammar, and the
//! per-rule derivative tables, read from the spec) are built from the
//! honest compile. Each case runs a corrupted copy of one artifact under
//! those honest certifiers — a wrong production tag, a wrong ACTION or
//! GOTO cell, a wrong accept tag or DFA transition — and proves the
//! per-step checkers catch the fault *at the first step that reads the
//! corrupted entry*, and that no fault ever survives to an accepting
//! `finish`.
//!
//! The honesty statement for a corrupted ACTION cell is differential:
//! a run over it goes undetected only when what it logs is genuinely
//! valid — so any log an undetected run accepts must still pass the
//! whole-tree `validate`.
//!
//! Lexeme spans and texts cannot be corrupted through an artifact (the
//! driver cuts both from the input), but `LexCertifier::check` takes a
//! `Token` from any caller, so its tiling and text checks are exercised
//! by corrupting the token itself.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lambek_automata::dfa::Dfa;
use lambek_automata::lookahead::ArithTokens;
use lambek_cfg::dyck::{dyck_cfg, Parens};
use lambek_cfg::expr::exp_cfg;
use lambek_cfg::grammar::Cfg;
use lambek_core::alphabet::GString;
use lambek_core::grammar::parse_tree::{validate, LogEntry};
use lambek_core::theory::unambiguous::all_strings;
use lambek_lex::demo::arith_spec;
use lambek_lex::{CertifiedLexer, LexAutomaton, LexedOutcome, Token};
use lambek_lr::{Action, CertifiedLrParser, LrOutcome, LrTable, ProductionRef};

fn dyck() -> (CertifiedLrParser, lambek_core::alphabet::Alphabet) {
    let p = Parens::new();
    let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).expect("Dyck is LALR(1)");
    (parser, p.alphabet)
}

/// `parser` with production `p`'s record replaced by `prod`.
fn with_production(parser: &CertifiedLrParser, p: usize, prod: ProductionRef) -> CertifiedLrParser {
    let mut table = parser.table().clone();
    table.set_production(p, prod);
    parser.with_table(table)
}

#[test]
fn corrupted_reduction_tags_are_caught_at_that_reduction() {
    let (parser, sigma) = dyck();
    let table = parser.table();
    let records: Vec<ProductionRef> = (1..table.num_productions())
        .map(|p| table.production(p))
        .collect();
    for (i, a) in records.iter().enumerate() {
        for b in &records[i + 1..] {
            assert_ne!(
                (a.alt, a.rhs_len),
                (b.alt, b.rhs_len),
                "log entries name productions"
            );
        }
    }
    let mut fired = 0usize;
    for input in ["()", "(())", "(()())", "()(())()"] {
        let w = sigma.parse_str(input).unwrap();
        let baseline = match parser.parse(&w).unwrap() {
            LrOutcome::Accept(log) => log,
            LrOutcome::Reject(r) => panic!("{input} is balanced: {r}"),
        };
        let honest_reductions: Vec<LogEntry> = baseline
            .entries()
            .iter()
            .copied()
            .filter(|e| matches!(e, LogEntry::Reduce { .. }))
            .collect();
        for (p, honest) in (1..table.num_productions()).zip(&records) {
            // The first reduction by `p` is the first step that reads its
            // record. Tag 99 indexes no alternative of any Dyck
            // nonterminal.
            let first = honest_reductions.iter().position(|e| {
                *e == LogEntry::Reduce {
                    alt: honest.alt as u32,
                    arity: honest.rhs_len as u32,
                }
            });
            let corrupted = with_production(&parser, p, ProductionRef { alt: 99, ..*honest });
            let mut stream = corrupted.stream();
            for sym in w.iter() {
                stream.push(sym);
                if let Some(fault) = stream.fault() {
                    // Caught at the very reduction that read the record.
                    assert_eq!(
                        Some(stream.step_counts().1),
                        first.map(|k| k + 1),
                        "fault {fault} on {input} caught at the first reduction by {p}, not later"
                    );
                }
            }
            match stream.finish() {
                Err(_) => {
                    assert!(first.is_some(), "production {p} never reduces on {input}");
                    fired += 1;
                }
                Ok(LrOutcome::Accept(log)) => {
                    // Production p never reduces here: the run must be
                    // identical to the honest one.
                    assert_eq!(first, None, "a corrupted tag of {p} survived on {input}");
                    assert_eq!(log, baseline, "corrupted tag of {p} never read");
                }
                Ok(LrOutcome::Reject(r)) => panic!("{input} must not reject: {r}"),
            }
        }
    }
    assert!(fired >= 4, "the corruption must actually fire");
}

#[test]
fn substituted_reductions_are_undetected_only_when_genuinely_valid() {
    let (parser, sigma) = dyck();
    let grammar = parser.grammar().clone();
    let table = parser.table();
    let mut substituted = 0usize;
    for state in 0..table.num_states() {
        for term in 0..table.num_terminals() {
            let Action::Reduce(honest) = table.action(state, term) else {
                continue;
            };
            // Production 0 is the synthetic S' → S start rule; only real
            // productions are legal substitution targets.
            for p in (1..table.num_productions()).filter(|&p| p != honest) {
                let mut bad = table.clone();
                bad.set_action(state, term, Action::Reduce(p));
                let corrupted = parser.with_table(bad);
                substituted += 1;
                for input in ["()", "(())", "(()())"] {
                    let w = sigma.parse_str(input).unwrap();
                    let mut stream = corrupted.stream();
                    stream.push_all(&w);
                    match stream.finish() {
                        // Caught — at the substituted reduction or at one
                        // of the claim checks it corrupted downstream.
                        Err(_) => {}
                        // Rejected — the substitution broke the table
                        // run (e.g. popped past the stack); nothing
                        // unsound escaped.
                        Ok(LrOutcome::Reject(_)) => {}
                        // Undetected: the differential honesty
                        // obligation — the accepted tree must be a
                        // *genuinely valid* derivation of the input.
                        Ok(LrOutcome::Accept(log)) => {
                            validate(&log.to_parse_tree(), &grammar, &w).unwrap_or_else(|e| {
                                panic!(
                                    "undetected substitution (cell ({state}, {term}) reduces by \
                                     {p}) on {input:?} produced an invalid tree: {e}"
                                )
                            });
                        }
                    }
                }
            }
        }
    }
    assert!(substituted > 0, "Dyck's table reduces somewhere");
}

/// `dfa` with state `s`'s accept tag replaced by `tag`, and the
/// transition `(from, sym) → to` when `edge` is given.
fn corrupt_dfa(
    dfa: &Dfa,
    retag: Option<(usize, usize)>,
    edge: Option<(usize, usize, usize)>,
) -> Dfa {
    let n = dfa.num_states();
    let stride = dfa.alphabet().len();
    let mut delta: Vec<usize> = (0..n).flat_map(|q| dfa.delta_row(q).to_vec()).collect();
    if let Some((from, sym, to)) = edge {
        delta[from * stride + sym] = to;
    }
    let accepting = (0..n).map(|q| dfa.is_accepting(q)).collect();
    let mut tags = dfa.tags().to_vec();
    if let Some((s, tag)) = retag {
        tags[s] = Some(tag);
    }
    Dfa::from_flat(dfa.alphabet().clone(), dfa.init(), accepting, delta).with_tags(tags)
}

/// Pushes `input` one char at a time through `lexer`'s stream and
/// certifies each emitted token, after `edit` had its way with it:
/// returns the emitted count and the index of the first token the
/// certifier refused.
fn stream_and_certify(
    lexer: &CertifiedLexer,
    input: &str,
    mut edit: impl FnMut(usize, &mut Token),
) -> (usize, Option<usize>) {
    let mut stream = lexer.automaton().stream();
    let mut cert = lexer.certifier();
    let mut caught_at = None;
    let mut emitted = 0usize;
    let mut check = |raw: &str, mut t: Token| {
        edit(emitted, &mut t);
        if caught_at.is_none() && cert.check(raw, &t).is_err() {
            caught_at = Some(emitted);
        }
        emitted += 1;
    };
    for c in input.chars() {
        for t in stream.push(c).expect("arith text lexes") {
            check(stream.raw_input(), t);
        }
    }
    for t in stream.finish().expect("arith text lexes") {
        check(input, t);
    }
    (emitted, caught_at)
}

#[test]
fn corrupted_lexemes_are_caught_at_their_munch_boundary() {
    let lexer = CertifiedLexer::compile(arith_spec()).unwrap();
    let input = "12+(345+6)+7 ";
    let baseline = lexer.automaton().lex_raw(input).unwrap();

    // A token whose span or text disagrees with the input: corrupt
    // token k itself on its way to the certifier.
    for k in 0..baseline.len() {
        let edits: [&dyn Fn(&mut Token); 2] = [
            &|t: &mut Token| {
                t.span.start += 1;
                t.span.end += 1;
            },
            &|t: &mut Token| t.text = "zz".to_owned(),
        ];
        for (e, edit) in edits.iter().enumerate() {
            let (emitted, caught_at) = stream_and_certify(&lexer, input, |i, t| {
                if i == k {
                    edit(t);
                }
            });
            assert_eq!(emitted, baseline.len(), "edits never drop tokens");
            assert_eq!(
                caught_at,
                Some(k),
                "edit {e} must be caught exactly at token {k}"
            );
        }
    }

    // A wrong rule: serve a DFA one of whose accept tags names another
    // rule. Boundaries are unchanged, and the first token cut at that
    // state is the first one the tag reaches.
    let spec = lexer.spec().clone();
    let dfa = lexer.automaton().dfa();
    let end_state =
        |t: &Token| dfa.final_state(dfa.init(), &spec.alphabet().parse_str(&t.text).unwrap());
    let mut fired = 0usize;
    for s in (0..dfa.num_states()).filter(|&s| dfa.accept_tag(s).is_some()) {
        for rule in (0..spec.rules().len()).filter(|&r| Some(r) != dfa.accept_tag(s)) {
            let corrupted = corrupt_dfa(dfa, Some((s, rule)), None);
            let bad =
                CertifiedLexer::from_automaton(LexAutomaton::from_dfa(spec.clone(), corrupted))
                    .unwrap();
            let (emitted, caught_at) = stream_and_certify(&bad, input, |_, _| {});
            assert_eq!(
                emitted,
                baseline.len(),
                "a wrong tag never moves a boundary"
            );
            // The arith rules' languages are disjoint, so a retagged
            // lexeme never re-matches its new rule.
            let first = baseline.iter().position(|t| end_state(t) == s);
            assert_eq!(caught_at, first, "state {s} retagged to rule {rule}");
            fired += usize::from(first.is_some());
        }
    }
    assert!(fired >= 8, "the retagged states must actually be reached");
}

/// Every way to change one entry of `parser`'s table: each ACTION cell to
/// each other action, each GOTO cell to each other successor (or none),
/// and each production record to each other `(nt, alt)` pair, to
/// `rhs_len ± 1`, and to tag 99.
fn single_cell_corruptions(parser: &CertifiedLrParser) -> Vec<(String, LrTable)> {
    let table = parser.table();
    let cfg = parser.cfg();
    let mut out = Vec::new();
    let mut push = |what: String, edit: &dyn Fn(&mut LrTable)| {
        let mut bad = table.clone();
        edit(&mut bad);
        out.push((what, bad));
    };
    let actions: Vec<Action> = [Action::Error, Action::Accept]
        .into_iter()
        .chain((0..table.num_states()).map(Action::Shift))
        .chain((1..table.num_productions()).map(Action::Reduce))
        .collect();
    for s in 0..table.num_states() {
        for t in 0..table.num_terminals() {
            for &a in actions.iter().filter(|&&a| a != table.action(s, t)) {
                push(format!("ACTION({s}, {t}) = {a:?}"), &|b| {
                    b.set_action(s, t, a)
                });
            }
        }
        for n in 0..table.num_nonterminals() {
            let honest = table.goto(s, n);
            for to in (0..table.num_states())
                .map(Some)
                .chain([None])
                .filter(|&to| to != honest)
            {
                push(format!("GOTO({s}, {n}) = {to:?}"), &|b| {
                    b.set_goto(s, n, to)
                });
            }
        }
    }
    for p in 1..table.num_productions() {
        let honest = table.production(p);
        let mut records: Vec<ProductionRef> = (0..cfg.num_nonterminals())
            .flat_map(|nt| (0..cfg.alternatives(nt).len()).map(move |alt| (nt, alt)))
            .filter(|&(nt, alt)| (nt, alt) != (honest.nt, honest.alt))
            .map(|(nt, alt)| ProductionRef { nt, alt, ..honest })
            .collect();
        records.push(ProductionRef {
            rhs_len: honest.rhs_len + 1,
            ..honest
        });
        if honest.rhs_len > 0 {
            records.push(ProductionRef {
                rhs_len: honest.rhs_len - 1,
                ..honest
            });
        }
        records.push(ProductionRef { alt: 99, ..honest });
        for r in records {
            push(format!("production {p} = {r:?}"), &|b| {
                b.set_production(p, r)
            });
        }
    }
    out
}

/// The contract over one corrupted table: no panic; the certified parse
/// faults, rejects, or accepts a log that `validate`s; the whole-tree
/// reference `parse_full` gives the same verdict wherever both return
/// `Ok`; a recognized word is never rejected by the certified parse; and
/// a stream that would accept after a push does not reject at `finish`.
fn check_corrupted_table(parser: &CertifiedLrParser, what: &str, words: &[GString]) {
    let grammar = parser.grammar().clone();
    for w in words {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let outcome = parser.parse(w);
            if let (Ok(certified), Ok(full)) = (&outcome, &parser.parse_full(w)) {
                assert_eq!(
                    certified.is_accept(),
                    full.is_accept(),
                    "parse and parse_full disagree"
                );
            }
            match &outcome {
                Err(_) => {}
                Ok(LrOutcome::Reject(_)) => {
                    assert!(!parser.recognizes(w), "recognized but rejected");
                    assert!(
                        !parser.stream().would_accept_after(w.iter()),
                        "probed to accept but rejected"
                    );
                }
                Ok(LrOutcome::Accept(log)) => validate(&log.to_parse_tree(), &grammar, w)
                    .unwrap_or_else(|e| panic!("accepted an invalid log: {e}")),
            }
            let mut stream = parser.stream();
            for sym in w.iter() {
                stream.push(sym);
                if stream.would_accept() {
                    assert!(
                        !matches!(stream.clone().finish(), Ok(LrOutcome::Reject(_))),
                        "would_accept after {} pushes, then rejected",
                        stream.len()
                    );
                }
            }
            if let Ok(LrOutcome::Accept(log)) = stream.finish() {
                validate(&log.to_parse_tree(), &grammar, w)
                    .unwrap_or_else(|e| panic!("streamed an invalid log: {e}"));
            }
        }));
        if let Err(cause) = run {
            let msg = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            panic!("{what} on {w}: {msg}");
        }
    }
}

fn check_every_single_cell_corruption(cfg: &Cfg, max_len: usize) -> usize {
    let parser = CertifiedLrParser::compile(cfg).expect("LALR(1)");
    let words = all_strings(cfg.alphabet(), max_len);
    let variants = single_cell_corruptions(&parser);
    for (what, table) in &variants {
        check_corrupted_table(&parser.with_table(table.clone()), what, &words);
    }
    variants.len()
}

#[test]
fn every_single_cell_lr_corruption_faults_rejects_or_accepts_validly() {
    let dyck = check_every_single_cell_corruption(&dyck_cfg(&Parens::new()), 6);
    let expr = check_every_single_cell_corruption(&exp_cfg(&ArithTokens::new()), 4);
    assert!(
        dyck > 100 && expr > 500,
        "{dyck} Dyck and {expr} expression variants"
    );
}

#[test]
fn every_single_cell_lexer_dfa_corruption_is_certified_rejected_or_caught() {
    let lexer = CertifiedLexer::compile(arith_spec()).unwrap();
    let spec = lexer.spec().clone();
    let dfa = lexer.automaton().dfa();
    let (n, k) = (dfa.num_states(), dfa.alphabet().len());
    let mut variants = Vec::new();
    for s in 0..n {
        for sym in 0..k {
            for to in (0..n).filter(|&to| to != dfa.delta_row(s)[sym]) {
                variants.push(corrupt_dfa(dfa, None, Some((s, sym, to))));
            }
        }
        if let Some(tag) = dfa.accept_tag(s) {
            for rule in (0..spec.rules().len()).filter(|&r| r != tag) {
                variants.push(corrupt_dfa(dfa, Some((s, rule)), None));
            }
        }
    }
    let inputs = [
        "12+(345+6)+7 ",
        "1 + 2",
        "((0))",
        "",
        "  ",
        "+)(",
        "12 34",
        "9(",
    ];
    for (v, corrupted) in variants.iter().enumerate() {
        let bad =
            CertifiedLexer::from_automaton(LexAutomaton::from_dfa(spec.clone(), corrupted.clone()))
                .unwrap();
        for input in inputs {
            let run = catch_unwind(AssertUnwindSafe(|| {
                // One-shot: certified tokens that really tile the input
                // and re-match their rules, a rejection, or a fault.
                if let Ok(LexedOutcome::Tokens(tokens)) = bad.lex(input) {
                    lexer
                        .certify(input, tokens.tokens())
                        .expect("certified tokens hold");
                }
                // Streamed, certified per token at its boundary.
                let mut stream = bad.automaton().stream();
                let mut cert = bad.certifier();
                let mut tokens = Vec::new();
                let mut ok = true;
                for c in input.chars() {
                    match stream.push(c) {
                        Ok(ts) => tokens.extend(ts),
                        Err(_) => ok = false,
                    }
                }
                if ok && stream.finish_into(&mut tokens).is_ok() {
                    let certified = tokens.iter().all(|t| cert.check(input, t).is_ok())
                        && cert.finish(input).is_ok();
                    if certified {
                        lexer
                            .certify(input, &tokens)
                            .expect("certified tokens hold");
                    }
                }
            }));
            assert!(run.is_ok(), "variant {v} panicked on {input:?}");
        }
    }
    assert!(variants.len() > 500, "{} variants", variants.len());
}
