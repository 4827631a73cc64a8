//! Differential property suite for incremental certification: the
//! O(1)-amortized per-step checkers must be *extensionally identical*
//! to the whole-output re-validation passes they replaced.
//!
//! Three layers, each compared against its retained `full` path:
//!
//! 1. **lex** — on random specs and random rule-shaped inputs,
//!    [`CertifiedLexer::lex`] (running tiling cursor + derivative-table
//!    walk per munch boundary) and
//!    [`CertifiedLexer::lex_full`] (materialize, then re-walk) return
//!    the same outcome: same accept/reject verdict, the same token
//!    stream on accept, and the same error class and byte offset on
//!    reject.
//! 2. **lr** — on random LALR(1) grammars, [`CertifiedLrParser::parse`]
//!    (reductions checked as performed) and
//!    [`CertifiedLrParser::parse_full`] (whole-tree `validate` at the
//!    end) agree on verdicts, trees, and rejection positions — and the
//!    incremental stream (`stream`) agrees with the one-shot parsers
//!    pointwise: each push and acceptance probe with the verdict on
//!    that prefix, the finished outcome with `parse_full`.
//! 3. **engine** — on raw arithmetic text, the fused lex→LR
//!    [`parse_str`](lambek_engine::CompiledPipeline::parse_str), the
//!    two-pass `parse_str_full`, and the character-streamed
//!    [`StreamParser`](lambek_engine::StreamParser) agree on verdict,
//!    tree, and rejection offsets; a conflicted grammar behind the same
//!    lexer is refused at compile time.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lambek_cfg::grammar::{Cfg, GSym, Production};
use lambek_core::alphabet::{Alphabet, GString, Symbol};
use lambek_core::theory::unambiguous::all_strings;
use lambek_engine::{Engine, EngineError, PipelineSpec, StrOutcome, StrReportOutcome};
use lambek_lex::spec::LexSpecBuilder;
use lambek_lex::{CertifiedLexer, LexAutomaton, LexedOutcome};
use lambek_lr::{CertifiedLrParser, LrOutcome};
use regex_grammars::ast::Regex;

/// A small random CFG over {a, b, c} (mirrors `prop_lr_vs_earley`):
/// some are LALR(1), some are not; the properties only exercise the
/// ones whose tables build.
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

/// A random non-nullable regex (lex rules must not accept ε).
fn random_rule_regex(alphabet: &Alphabet, size: usize, rng: &mut StdRng) -> Regex {
    let re = regex_grammars::gen::random_regex(alphabet, size, rng.gen());
    if re.nullable() {
        let c = Symbol::from_index(rng.gen_range(0..alphabet.len()));
        Regex::concat(Regex::Char(c), re)
    } else {
        re
    }
}

/// A random 2–4 rule spec over {a, b}.
fn random_spec(seed: u64) -> (LexAutomaton, Vec<Regex>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma = Alphabet::from_chars("ab");
    let num_rules = rng.gen_range(2..5);
    let mut builder = LexSpecBuilder::new(sigma.clone());
    let mut regexes = Vec::new();
    for i in 0..num_rules {
        let re = random_rule_regex(&sigma, rng.gen_range(1..6), &mut rng);
        regexes.push(re.clone());
        builder = builder.token_re(&format!("T{i}"), re).unwrap();
    }
    (LexAutomaton::compile(builder.build().unwrap()), regexes)
}

/// Samples one string from a regex's language (`None` for ∅), bounding
/// star unrolling.
fn sample(re: &Regex, rng: &mut StdRng, depth: usize) -> Option<GString> {
    match re {
        Regex::Empty => None,
        Regex::Eps => Some(GString::new()),
        Regex::Char(c) => Some(GString::singleton(*c)),
        Regex::Concat(l, r) => {
            let mut w = sample(l, rng, depth)?;
            w.extend(sample(r, rng, depth)?.iter());
            Some(w)
        }
        Regex::Alt(l, r) => {
            let (first, second) = if rng.gen_bool(0.5) { (l, r) } else { (r, l) };
            sample(first, rng, depth).or_else(|| sample(second, rng, depth))
        }
        Regex::Star(inner) => {
            let mut w = GString::new();
            if depth < 3 {
                for _ in 0..rng.gen_range(0..3) {
                    if let Some(piece) = sample(inner, rng, depth + 1) {
                        w.extend(piece.iter());
                    }
                }
            }
            Some(w)
        }
    }
}

/// Concatenated samples from random rules — inputs the lexer is likely
/// (but not guaranteed) to accept.
fn random_rule_shaped_input(regexes: &[Regex], k: usize, rng: &mut StdRng) -> GString {
    let mut w = GString::new();
    for _ in 0..k {
        let re = &regexes[rng.gen_range(0..regexes.len())];
        if let Some(piece) = sample(re, rng, 0) {
            w.extend(piece.iter());
        }
    }
    w
}

/// Random arithmetic-ish raw text, occasionally unlexable or
/// unparsable, to exercise all three outcome classes.
fn random_arith_text(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::new();
    for _ in 0..rng.gen_range(0..14) {
        match rng.gen_range(0..8) {
            0 => text.push('('),
            1 => text.push(')'),
            2 => text.push('+'),
            3 => text.push(' '),
            4 => text.push('x'), // not in the character alphabet
            _ => {
                for _ in 0..rng.gen_range(1..4) {
                    text.push(char::from(b'0' + rng.gen_range(0u8..10)));
                }
            }
        }
    }
    text
}

/// The arithmetic lexer in front of the ambiguous `E → E + E | ( E ) |
/// NUM`: LR compilation hits shift/reduce conflicts, so the pipeline
/// does not compile.
fn conflicted_arith_lexed() -> PipelineSpec {
    let spec = lambek_lex::demo::arith_spec();
    let sigma = spec.token_alphabet().clone();
    let t = |name: &str| GSym::T(sigma.symbol(name).expect("arith token"));
    let rules = [
        vec![GSym::N(0), t("+"), GSym::N(0)],
        vec![t("("), GSym::N(0), t(")")],
        vec![t("NUM")],
    ];
    let cfg = Cfg::new(
        sigma.clone(),
        vec!["E".to_owned()],
        vec![rules.into_iter().map(|rhs| Production { rhs }).collect()],
        0,
    );
    PipelineSpec::lexed_cfg("arith-ambiguous", spec, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lex layer: incremental ≡ full on random specs — same verdict,
    /// same tokens, same rejection byte offset and offending char.
    #[test]
    fn incremental_lex_equals_full_lex(seed in 0u64..300) {
        let (auto, regexes) = random_spec(seed);
        let sigma = auto.spec().alphabet().clone();
        let lexer = CertifiedLexer::from_automaton(auto).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        for k in 0..4 {
            let w = random_rule_shaped_input(&regexes, k, &mut rng);
            let mut input = sigma.display(&w);
            if rng.gen_bool(0.3) {
                // Occasionally poison the tail so rejection offsets get
                // compared too ('z' is outside every random alphabet).
                input.push('z');
            }
            let incremental = lexer.lex(&input).unwrap();
            let full = lexer.lex_full(&input).unwrap();
            match (&incremental, &full) {
                (LexedOutcome::Tokens(a), LexedOutcome::Tokens(b)) => {
                    prop_assert_eq!(a, b, "token streams differ on {:?}", input);
                }
                (LexedOutcome::Reject(a), LexedOutcome::Reject(b)) => {
                    prop_assert_eq!(a, b, "rejections differ on {:?}", input);
                }
                _ => prop_assert!(
                    false,
                    "verdicts differ on {:?}: incremental {:?}, full {:?}",
                    input, incremental, full
                ),
            }
        }
    }

    /// LR layer: incremental ≡ full on random LALR(1) grammars — same
    /// verdict, same tree (hash-consed id equality via `==`), same
    /// rejection position and expected set; and the stream agrees with
    /// one-shot pointwise.
    #[test]
    fn incremental_lr_equals_full_lr(seed in 0u64..300) {
        let cfg = random_cfg(seed);
        let sigma = cfg.alphabet().clone();
        let Ok(parser) = CertifiedLrParser::compile(&cfg) else {
            return Ok(()); // conflicted grammars have no LR path to compare
        };
        for w in all_strings(&sigma, 4) {
            let incremental = parser.parse(&w).expect("the driver never faults");
            let full = parser.parse_full(&w).expect("validation never fails");
            match (&incremental, &full) {
                (LrOutcome::Accept(a), LrOutcome::Accept(b)) => {
                    prop_assert_eq!(a, b, "trees differ on {}", &w);
                }
                (LrOutcome::Reject(a), LrOutcome::Reject(b)) => {
                    prop_assert_eq!(a, b, "rejections differ on {}", &w);
                }
                _ => prop_assert!(
                    false,
                    "verdicts differ on {}: incremental {:?}, full {:?}",
                    &w, incremental, full
                ),
            }
            // Streamed ≡ one-shot. A push keeps the stream viable
            // exactly when the whole-tree reference, run on the prefix so
            // far, accepts or runs out of input (rejects at its end).
            let mut inc_stream = parser.stream();
            for (i, sym) in w.iter().enumerate() {
                let prefix = w.substring(0, i + 1);
                let viable = match parser.parse_full(&prefix).expect("validation never fails") {
                    LrOutcome::Accept(_) => true,
                    LrOutcome::Reject(r) => r.at == prefix.len(),
                };
                prop_assert_eq!(inc_stream.push(sym), viable, "{}", &prefix);
                prop_assert_eq!(inc_stream.would_accept(), parser.recognizes(&prefix), "{}", &prefix);
            }
            let streamed = inc_stream.finish().expect("the driver never faults");
            prop_assert_eq!(streamed.accepted(), incremental.accepted(), "{}", &w);
            prop_assert_eq!(&streamed, &full, "{}", &w);
        }
    }

    /// Engine layer: the fused incremental `parse_str`, the two-pass
    /// `parse_str_full`, the batch `parse_many_str`, and the
    /// character-streamed `StreamParser` agree on verdict, tree, and
    /// rejection offsets for raw arithmetic text on the LR-backed
    /// arithmetic pipeline.
    #[test]
    fn fused_engine_path_equals_two_pass_and_stream(seed in 0u64..300) {
        let engine = Engine::new();
        let input = random_arith_text(seed);
        let spec = PipelineSpec::arith_lexed();
        let pipeline = engine.get_or_compile(&spec).unwrap();
        let backend = pipeline.lexed_backend().expect("lexed pipeline");

        let fused = pipeline.parse_str(&input).unwrap();
        let full = backend.parse_str_full(&input).unwrap();
        // The fused path never materializes tokens; it must agree
        // with the two-pass reference on everything else.
        match (&fused, &full) {
            (
                StrOutcome::Accept { derivation: a, tokens: ta },
                StrOutcome::Accept { derivation: b, .. },
            ) => {
                prop_assert_eq!(a, b, "trees differ on {:?}", input);
                prop_assert!(ta.is_none(), "fused path materialized tokens on {:?}", input);
            }
            (
                StrOutcome::RejectParse { span: sa, message: ma, tokens: ta },
                StrOutcome::RejectParse { span: sb, message: mb, .. },
            ) => {
                prop_assert_eq!(sa, sb, "rejection spans differ on {:?}", input);
                prop_assert_eq!(ma, mb, "rejection messages differ on {:?}", input);
                prop_assert!(ta.is_none(), "fused path materialized tokens on {:?}", input);
            }
            (StrOutcome::RejectLex(a), StrOutcome::RejectLex(b)) => {
                prop_assert_eq!(a, b, "lex rejections differ on {:?}", input);
            }
            _ => prop_assert!(
                false,
                "verdicts differ on {:?}: fused {:?}, full {:?}",
                input, fused, full
            ),
        }

        // The token-materializing incremental path is extensionally
        // identical to the two-pass reference, token streams included.
        let materialized = backend.parse_str_tokens(&input).unwrap();
        prop_assert_eq!(&materialized, &full, "parse_str_tokens differs on {:?}", input);

        // Batch goes through the same fused path: same verdict class
        // and same rejection offsets.
        let batch = engine.parse_many_str(&spec, &[input.as_str()], 1).unwrap();
        prop_assert_eq!(batch.len(), 1);
        match (&batch[0].outcome, &fused) {
            (StrReportOutcome::Accepted { .. }, StrOutcome::Accept { .. }) => {}
            (
                StrReportOutcome::RejectedParse { span, message },
                StrOutcome::RejectParse { span: fspan, message: fmessage, .. },
            ) => {
                prop_assert_eq!(span, fspan, "batch span differs on {:?}", input);
                prop_assert_eq!(message, fmessage, "batch message differs on {:?}", input);
            }
            (StrReportOutcome::RejectedLex { at, .. }, StrOutcome::RejectLex(e)) => {
                prop_assert_eq!(*at, e.at, "batch lex offset differs on {:?}", input);
            }
            (batch, fused) => prop_assert!(
                false,
                "batch verdict differs on {:?}: batch {:?}, fused {:?}",
                input, batch, fused
            ),
        }

        // Character streaming: same verdict, same tree.
        let mut stream = engine.stream(&spec).unwrap();
        stream.push_chars(&input);
        prop_assert_eq!(
            stream.would_accept(),
            fused.is_accept(),
            "would_accept diverges on {:?}",
            input
        );
        let outcome = stream.finish().unwrap();
        prop_assert_eq!(outcome.is_accept(), fused.is_accept(), "{:?}", input);
        let fused_tree = fused.accepted().map(|d| d.to_parse_tree());
        prop_assert_eq!(outcome.accepted(), fused_tree.as_ref(), "{:?}", input);
    }
}

/// The conflicted grammar behind the arithmetic lexer does not compile,
/// so no path above can serve it.
#[test]
fn a_conflicted_grammar_behind_the_arith_lexer_is_refused() {
    let engine = Engine::new();
    assert!(matches!(
        engine.get_or_compile(&conflicted_arith_lexed()),
        Err(EngineError::Compile(m)) if m.contains("not LALR(1)")
    ));
    assert_eq!(engine.stats().entries, 0);
}
