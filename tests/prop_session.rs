//! Property suite for serializable stream sessions: parking a stream
//! mid-input — snapshot → serialize → deserialize → resume — must be
//! *observationally invisible*. For random pipelines, random inputs and
//! random snapshot points:
//!
//! 1. the resumed stream agrees with an uninterrupted twin at **every**
//!    subsequent push (`would_accept`, `is_viable`, consumed lengths)
//!    and at the end (`finish`: same accepts, same rejects, identical
//!    certified trees, every accepted tree re-validated from outside);
//! 2. a blob parked from one spec never resumes into a structurally
//!    different one (`SessionError::SpecMismatch`), and a damaged blob
//!    is a structured `Corrupt`/`Invalid` error — resume can reject a
//!    bogus blob but can never be tricked into mis-certifying: whatever
//!    state it does accept behaves identically to a stream that earned
//!    that state honestly, which is exactly what property 1 asserts.
//!
//! DFA-mode sessions are exercised on random regexes, LR-mode sessions
//! on random LALR(1) grammars, lexed-LR sessions on the raw-text
//! arithmetic and JSON pipelines with inputs that include unlexable
//! bytes (dead-lexer sessions must park and resume too).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lambekd::core::alphabet::{Alphabet, GString, Symbol};
use lambekd::core::grammar::parse_tree::validate;
use lambekd::engine::{Engine, PipelineSpec, SessionError, SessionState};

/// Drives two streams over the same symbol input, parking and resuming
/// one of them at `cut`, and asserts pointwise observational equality
/// from the cut to the end.
fn assert_symbol_session_equivalence(
    engine: &Engine,
    spec: &PipelineSpec,
    w: &GString,
    cut: usize,
) -> Result<(), TestCaseError> {
    let mut base = engine.stream(spec).expect("spec streams");
    let mut parked = engine.stream(spec).expect("spec streams");
    for sym in w.iter().take(cut) {
        base.push(sym);
        parked.push(sym);
    }
    let blob = parked.snapshot().expect("unfaulted streams park");
    // Round-trip through raw bytes: what resume sees is exactly what a
    // file or socket would deliver.
    let blob = SessionState::from_bytes(blob.into_bytes());
    let mut resumed = engine.resume(spec, &blob).expect("honest blobs resume");
    prop_assert_eq!(resumed.len(), base.len());
    prop_assert_eq!(resumed.would_accept(), base.would_accept());
    prop_assert_eq!(resumed.is_viable(), base.is_viable());
    for sym in w.iter().skip(cut) {
        base.push(sym);
        resumed.push(sym);
        prop_assert_eq!(resumed.would_accept(), base.would_accept());
        prop_assert_eq!(resumed.is_viable(), base.is_viable());
    }
    let a = base.finish().expect("uninterrupted finish");
    let b = resumed.finish().expect("resumed finish");
    prop_assert_eq!(a.is_accept(), b.is_accept(), "verdicts diverge");
    match (a.accepted(), b.accepted()) {
        (Some(ta), Some(tb)) => {
            prop_assert_eq!(ta, tb, "certified trees diverge");
            let pipeline = engine.get_or_compile(spec).expect("cached");
            validate(tb, pipeline.grammar(), w).expect("resumed tree re-validates");
        }
        (None, None) => {}
        _ => prop_assert!(false, "one side accepted, the other rejected"),
    }
    Ok(())
}

/// As [`assert_symbol_session_equivalence`], for raw-text (lexed)
/// streams: the cut is a char index, and the token lists and raw inputs
/// must match too.
fn assert_char_session_equivalence(
    engine: &Engine,
    spec: &PipelineSpec,
    input: &str,
    cut_chars: usize,
) -> Result<(), TestCaseError> {
    let mut base = engine.stream(spec).expect("spec streams");
    let mut parked = engine.stream(spec).expect("spec streams");
    for c in input.chars().take(cut_chars) {
        base.push_char(c);
        parked.push_char(c);
    }
    let blob = parked.snapshot().expect("unfaulted streams park");
    let blob = SessionState::from_bytes(blob.into_bytes());
    let mut resumed = engine.resume(spec, &blob).expect("honest blobs resume");
    prop_assert_eq!(resumed.raw_input(), base.raw_input());
    prop_assert_eq!(resumed.tokens(), base.tokens());
    prop_assert_eq!(resumed.would_accept(), base.would_accept());
    for c in input.chars().skip(cut_chars) {
        let vb = base.push_char(c);
        let vr = resumed.push_char(c);
        prop_assert_eq!(vr, vb, "viability bits diverge at {:?}", c);
        prop_assert_eq!(resumed.would_accept(), base.would_accept());
    }
    prop_assert_eq!(resumed.tokens(), base.tokens());
    let a = base.finish().expect("uninterrupted finish");
    let b = resumed.finish().expect("resumed finish");
    prop_assert_eq!(a.is_accept(), b.is_accept(), "verdicts diverge");
    if let (Some(ta), Some(tb)) = (a.accepted(), b.accepted()) {
        prop_assert_eq!(ta, tb, "certified trees diverge");
        let pipeline = engine.get_or_compile(spec).expect("cached");
        validate(tb, pipeline.grammar(), &tb.flatten()).expect("resumed tree re-validates");
    }
    Ok(())
}

/// A random input over `sigma`, length 0..`max_len`.
fn random_input(sigma: &Alphabet, max_len: usize, rng: &mut StdRng) -> GString {
    let len = rng.gen_range(0..max_len);
    (0..len)
        .map(|_| Symbol::from_index(rng.gen_range(0..sigma.len())))
        .collect()
}

/// A small random LALR(1) grammar (rejection-sampled: conflicted draws
/// fall back to the Dyck CFG, which always streams).
fn random_lr_spec(seed: u64) -> PipelineSpec {
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
                        lambekd::cfg::grammar::GSym::N(rng.gen_range(0..num_nt))
                    } else {
                        lambekd::cfg::grammar::GSym::T(Symbol::from_index(
                            rng.gen_range(0..sigma.len()),
                        ))
                    }
                })
                .collect();
            ps.push(lambekd::cfg::grammar::Production { rhs });
        }
        productions.push(ps);
    }
    let cfg = lambekd::cfg::grammar::Cfg::new(
        sigma,
        (0..num_nt).map(|i| format!("N{i}")).collect(),
        productions,
        0,
    );
    let spec = PipelineSpec::cfg(format!("random-{seed}"), cfg);
    let engine = Engine::new();
    if engine.stream(&spec).is_ok() {
        spec
    } else {
        PipelineSpec::dyck_cfg()
    }
}

/// Random raw text biased toward the arithmetic lexer's language, with
/// occasional unlexable bytes so dead-lexer sessions get parked too.
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
            _ => text.push(char::from(b'0' + rng.gen_range(0u8..10))),
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// DFA-mode sessions: random regex pipelines, random inputs, every
    /// possible snapshot point.
    #[test]
    fn dfa_sessions_resume_equivalently(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = Alphabet::abc();
        let re = regex_grammars::gen::random_regex(&sigma, rng.gen_range(1..8), rng.gen());
        let spec = PipelineSpec::regex(sigma.clone(), re.to_string());
        let engine = Engine::new();
        if engine.stream(&spec).is_err() {
            // A degenerate random regex may fail to compile; that is
            // the regex suite's concern, not this one's.
            return Ok(());
        }
        let w = random_input(&sigma, 12, &mut rng);
        for cut in 0..=w.len() {
            assert_symbol_session_equivalence(&engine, &spec, &w, cut)?;
        }
    }

    /// LR-mode sessions: random LALR(1) grammars, random inputs (mostly
    /// rejected — dead LR sessions must park and resume), every
    /// snapshot point.
    #[test]
    fn lr_sessions_resume_equivalently(seed in 0u64..300) {
        let spec = random_lr_spec(seed);
        let engine = Engine::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a);
        // Draw inputs from the spec's own alphabet (pushing foreign
        // symbols is outside the stream contract).
        let sigma = engine
            .get_or_compile(&spec)
            .expect("compiles")
            .alphabet()
            .clone();
        let w = random_input(&sigma, 10, &mut rng);
        for cut in 0..=w.len() {
            assert_symbol_session_equivalence(&engine, &spec, &w, cut)?;
        }
    }

    /// Lexed-LR sessions over raw arithmetic text (unlexable bytes
    /// included): park/resume at every character boundary.
    #[test]
    fn lexed_sessions_resume_equivalently(seed in 0u64..200) {
        let engine = Engine::new();
        let spec = PipelineSpec::arith_lexed();
        let text = random_arith_text(seed);
        let chars = text.chars().count();
        for cut in 0..=chars {
            assert_char_session_equivalence(&engine, &spec, &text, cut)?;
        }
    }

    /// Lexed-LR sessions on the JSON pipeline, snapshot point drawn at
    /// random (the arith property already sweeps every cut).
    #[test]
    fn json_sessions_resume_equivalently(seed in 0u64..120) {
        let engine = Engine::new();
        let spec = PipelineSpec::json_lexed();
        let docs = [
            "{\"k\": [1, 2, {\"deep\": null}], \"ok\": true}",
            "[true, false, [\"s\", 7]]",
            "{\"a\" 1}",
            "{\"price\": 12.50}",
            "[[[",
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = docs[rng.gen_range(0..docs.len())];
        let cut = rng.gen_range(0..=doc.chars().count());
        assert_char_session_equivalence(&engine, &spec, doc, cut)?;
    }

    /// A blob parked from one spec is rejected by every structurally
    /// different spec — as `SpecMismatch`, before any state is
    /// interpreted — and resuming into the right spec still works.
    #[test]
    fn wrong_spec_restores_are_rejected(seed in 0u64..60) {
        let engine = Engine::new();
        let specs = [
            PipelineSpec::regex(Alphabet::abc(), "(a|b)*c"),
            PipelineSpec::regex(Alphabet::abc(), "(a|b)*"),
            PipelineSpec::dyck(8),
            PipelineSpec::dyck(9),
            PipelineSpec::dyck_cfg(),
            PipelineSpec::expr_cfg(),
            PipelineSpec::arith_lexed(),
            PipelineSpec::json_lexed(),
        ];
        let inputs = ["", "ab", "(()", "12+3"];
        let mut rng = StdRng::seed_from_u64(seed);
        let from_idx = rng.gen_range(0..specs.len());
        let from = &specs[from_idx];
        let mut stream = engine.stream(from).expect("all the specs above stream");
        let pipeline = engine.get_or_compile(from).expect("cached");
        let input = inputs[rng.gen_range(0..inputs.len())];
        if pipeline.lexed_backend().is_some() {
            stream.push_chars(input);
        } else {
            for c in input.chars() {
                if let Some(sym) = pipeline.alphabet().symbol_of_char(c) {
                    stream.push(sym);
                }
            }
        }
        let blob = stream.snapshot().expect("parks");
        for (i, other) in specs.iter().enumerate() {
            let outcome = engine.resume(other, &blob);
            if i == from_idx {
                prop_assert!(outcome.is_ok(), "same spec must resume");
            } else {
                prop_assert!(
                    matches!(outcome, Err(SessionError::SpecMismatch { .. })),
                    "{} resumed a blob parked from {}",
                    other.label(),
                    from.label()
                );
            }
        }
    }

    /// Damaged blobs: every single-bit flip of a parked lexed session is
    /// a structured error — never a panic, never a resumed stream.
    #[test]
    fn bit_flipped_blobs_are_rejected(seed in 0u64..40) {
        let engine = Engine::new();
        let spec = PipelineSpec::arith_lexed();
        let mut stream = engine.stream(&spec).expect("streams");
        stream.push_chars(&random_arith_text(seed));
        let blob = stream.snapshot().expect("parks");
        let bytes = blob.as_bytes().to_vec();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb17);
        for _ in 0..64 {
            let bit = rng.gen_range(0..bytes.len() * 8);
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            if bad == bytes {
                continue;
            }
            let outcome = engine.resume(&spec, &SessionState::from_bytes(bad));
            prop_assert!(
                matches!(outcome, Err(SessionError::Corrupt(_))),
                "flipping bit {} was not caught by the checksum",
                bit
            );
        }
    }
}

/// Forged blobs with a *valid* checksum (re-sealed after tampering)
/// still cannot smuggle inconsistent state past re-validation. This is
/// the semantic half of the trust boundary, beyond what the checksum
/// covers; deterministic, so outside the proptest block.
#[test]
fn resealed_tampered_payloads_fail_revalidation_not_certification() {
    let engine = Engine::new();
    let spec = PipelineSpec::arith_lexed();
    let mut stream = engine.stream(&spec).unwrap();
    stream.push_chars("12+(3");
    let blob = stream.snapshot().unwrap();
    let bytes = blob.as_bytes();
    let payload_start = 4 + 2 + 8 + 1; // magic, version, fingerprint, mode
    let payload_end = bytes.len() - 8; // checksum
    let mut rejected = 0usize;
    for i in payload_start..payload_end {
        for delta in [1u8, 0x80] {
            let mut forged = bytes[..payload_end].to_vec();
            forged[i] = forged[i].wrapping_add(delta);
            // Re-seal: recompute a valid checksum over the tampered
            // body, exactly as a malicious writer would.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in &forged {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            forged.extend_from_slice(&h.to_le_bytes());
            match engine.resume(&spec, &SessionState::from_bytes(forged)) {
                // The forgery changed something load-bearing and was
                // caught by decoding or re-validation.
                Err(_) => rejected += 1,
                // Or it resumed — then it must behave exactly like an
                // honest stream: certified finish, yield-correct tree.
                Ok(mut resumed) => {
                    resumed.push_chars(")");
                    if let Ok(outcome) = resumed.finish() {
                        if let Some(tree) = outcome.accepted() {
                            let pipeline = engine.get_or_compile(&spec).unwrap();
                            validate(tree, pipeline.grammar(), &tree.flatten())
                                .expect("a resumed session may never mis-certify");
                        }
                    }
                }
            }
        }
    }
    assert!(
        rejected > 0,
        "at least some payload tampering must be caught by re-validation"
    );
}

/// Wire compatibility: session blobs parked before the LR driver
/// switched from boxed trees to a reduction log (`tests/fixtures/`)
/// still resume, and finish with the verdict, tree size and yield
/// length recorded beside them (`<name>.expect`: `accept SIZE YIELD`).
#[test]
fn golden_session_blobs_resume_and_finish_as_recorded() {
    const JSON_DOC: &str = r#"{"name": "lambek", "tags": [1, 22, 333, true, false, null], "nested": {"deep": [[], {}, "x"]}}"#;
    let fixture = |name: &str| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
        let blob = std::fs::read(format!("{dir}{name}.session")).expect("fixture blob");
        let expect = std::fs::read_to_string(format!("{dir}{name}.expect")).expect("fixture");
        (SessionState::from_bytes(blob), expect.trim().to_owned())
    };
    let engine = Engine::new();
    let finished = |outcome: lambekd::core::theory::parser::ParseOutcome| match outcome.accepted() {
        Some(tree) => format!("accept {} {}", tree.size(), tree.flatten().len()),
        None => "reject".to_owned(),
    };

    // Lexed-LR JSON, parked mid-document (41 chars in, inside `true`).
    let spec = PipelineSpec::json_lexed();
    let (blob, expect) = fixture("json_lexed_mid");
    let mut resumed = engine
        .resume(&spec, &blob)
        .expect("the golden blob resumes");
    assert_eq!(resumed.raw_input(), Some(&JSON_DOC[..41]));
    assert!(resumed.push_chars(&JSON_DOC[41..]));
    assert_eq!(
        finished(resumed.finish().expect("certified finish")),
        expect
    );

    // Dyck LR, parked after six of `(()(()))()(())`.
    let spec = PipelineSpec::dyck_cfg();
    let (blob, expect) = fixture("dyck_cfg_mid");
    let mut resumed = engine
        .resume(&spec, &blob)
        .expect("the golden blob resumes");
    let sigma = engine.get_or_compile(&spec).unwrap().alphabet().clone();
    let w = sigma.parse_str("(()(()))()(())").unwrap();
    assert_eq!(resumed.input(), &w.substring(0, 6));
    resumed.push_all(&w.substring(6, w.len()));
    assert_eq!(
        finished(resumed.finish().expect("certified finish")),
        expect
    );
}
