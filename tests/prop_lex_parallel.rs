//! Property suite for the lexer hot-path work: speculative parallel
//! chunked lexing, the byte-sliced scanner, the bulk push-mode path,
//! and the fused lex→LR pipeline — every fast path differentially
//! checked against the slow path it replaced.
//!
//! Five families:
//!
//! 1. on random token specs over a tiny (maximally overlapping)
//!    alphabet, chunked lexing agrees with the sequential scan — same
//!    lexemes, same spans, same error — for every chunk count,
//!    including seams landing inside maximal-munch lookahead;
//! 2. the same with a multi-byte alphabet, so chunk seams fall inside
//!    UTF-8 sequences and `chunk_starts` must snap them to char
//!    boundaries without ever changing the outcome;
//! 3. the byte-sliced scanner agrees with the charwise reference loop
//!    (acceptance, boundaries, rule choice);
//! 4. the bulk `push_str` path agrees with per-char pushes — tokens,
//!    errors, and retained stream state — under random slicings;
//! 5. the fused lex→LR `parse_str` agrees with the materializing
//!    `parse_str_tokens`, and `Engine::lex_str_parallel` agrees with
//!    the sequential certified lexer, on random arith-ish raw text.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lambekd::core::alphabet::Alphabet;
use lambekd::engine::{Engine, PipelineSpec, StrOutcome};
use lambekd::lex::spec::LexSpecBuilder;
use lambekd::lex::{chunk_starts, LexAutomaton, RawLexeme, Token};

/// A random prioritized spec over `chars`: 2–4 non-nullable rules, the
/// same recipe as `prop_lex.rs` (tiny alphabets maximize rule overlap,
/// which is where lookahead straddles seams).
fn random_spec(chars: &str, seed: u64) -> LexAutomaton {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma = Alphabet::from_chars(chars);
    let num_rules = rng.gen_range(2..5);
    let mut builder = LexSpecBuilder::new(sigma.clone());
    for i in 0..num_rules {
        let re = {
            let re = lambekd::regex::gen::random_regex(&sigma, rng.gen_range(1..6), rng.gen());
            if re.nullable() {
                let c = lambekd::core::alphabet::Symbol::from_index(rng.gen_range(0..sigma.len()));
                lambekd::regex::ast::Regex::concat(lambekd::regex::ast::Regex::Char(c), re)
            } else {
                re
            }
        };
        builder = builder.token_re(&format!("T{i}"), re).unwrap();
    }
    LexAutomaton::compile(builder.build().unwrap())
}

/// A random string over the spec's alphabet (not rule-shaped on
/// purpose: rejecting inputs must round-trip through the seams too).
fn random_text(chars: &str, len: usize, rng: &mut StdRng) -> String {
    let pool: Vec<char> = chars.chars().collect();
    (0..len)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect()
}

fn sequential(auto: &LexAutomaton, input: &str) -> Result<Vec<RawLexeme>, lambekd::lex::LexError> {
    auto.raw_lexemes(input).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Family 1: chunked ≡ sequential on random specs, random inputs,
    /// every chunk count up to beyond the input length.
    #[test]
    fn chunked_lexing_agrees_with_sequential(seed in 0u64..300) {
        let auto = random_spec("ab", seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00c0_ffee);
        for len in [0usize, 1, 3, 7, 17, 40] {
            let input = random_text("ab", len, &mut rng);
            let seq = sequential(&auto, &input);
            for chunks in [1usize, 2, 3, 4, 7, len + 2] {
                prop_assert_eq!(
                    &auto.lex_raw_chunked(&input, chunks),
                    &seq,
                    "{} chunks on {:?}",
                    chunks,
                    input
                );
            }
        }
    }

    /// Family 2: multi-byte seams. The alphabet mixes 1-, 2- and 3-byte
    /// chars, so raw byte splits land mid-scalar; `chunk_starts` must
    /// snap forward and the outcome must not change. Also asserts the
    /// snapping invariants directly.
    #[test]
    fn multibyte_seams_never_change_the_outcome(seed in 0u64..300) {
        let chars = "aß∂";
        let auto = random_spec(chars, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf8);
        for len in [0usize, 1, 2, 5, 11, 23] {
            let input = random_text(chars, len, &mut rng);
            for chunks in [1usize, 2, 3, 5, 8, input.len() + 2] {
                let starts = chunk_starts(&input, chunks);
                prop_assert_eq!(starts[0], 0);
                for w in starts.windows(2) {
                    prop_assert!(w[0] < w[1], "strictly increasing: {:?}", starts);
                }
                for &b in &starts {
                    prop_assert!(input.is_char_boundary(b), "{} in {:?}", b, input);
                }
                prop_assert_eq!(
                    &auto.lex_raw_chunked(&input, chunks),
                    &sequential(&auto, &input),
                    "{} chunks on {:?}",
                    chunks,
                    input
                );
            }
        }
    }

    /// Family 3: the byte-sliced scanner is observationally equal to
    /// the charwise reference loop.
    #[test]
    fn byte_sliced_agrees_with_charwise(seed in 0u64..300) {
        let auto = random_spec("ab", seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for len in [0usize, 1, 4, 9, 33] {
            let input = random_text("ab", len, &mut rng);
            prop_assert_eq!(
                auto.lex_raw(&input),
                auto.lex_raw_charwise(&input),
                "on {:?}",
                input
            );
        }
    }

    /// Family 4: bulk `push_str` ≡ per-char pushes under random
    /// slicings — same tokens, same error, same exported stream state.
    #[test]
    fn bulk_push_str_agrees_with_per_char(seed in 0u64..300) {
        let auto = random_spec("ab", seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb01d);
        let input = random_text("ab", rng.gen_range(0..40), &mut rng);
        // Random slicing of the input into pushes.
        let mut slices: Vec<String> = Vec::new();
        {
            let mut rest = input.as_str();
            while !rest.is_empty() {
                let mut cut = rng.gen_range(1..=rest.len());
                while !rest.is_char_boundary(cut) {
                    cut += 1;
                }
                slices.push(rest[..cut].to_owned());
                rest = &rest[cut..];
            }
        }
        let mut bulk = auto.stream();
        let mut charwise = auto.stream();
        let mut bulk_out: Vec<Token> = Vec::new();
        let mut char_out: Vec<Token> = Vec::new();
        let mut bulk_err = None;
        let mut char_err = None;
        for s in &slices {
            if bulk_err.is_none() {
                if let Err(e) = bulk.push_str_into(s, &mut bulk_out) {
                    bulk_err = Some(e);
                }
            }
            if char_err.is_none() {
                for c in s.chars() {
                    match charwise.push(c) {
                        Ok(t) => char_out.extend(t),
                        Err(e) => {
                            char_err = Some(e);
                            break;
                        }
                    }
                }
            }
        }
        prop_assert_eq!(&bulk_err, &char_err, "errors differ on {:?} / {:?}", input, slices);
        if bulk_err.is_none() {
            prop_assert_eq!(&bulk_out, &char_out, "tokens differ on {:?} / {:?}", input, slices);
            prop_assert_eq!(
                bulk.export_state(),
                charwise.export_state(),
                "state differs on {:?} / {:?}",
                input,
                slices
            );
            prop_assert_eq!(bulk.finish(), charwise.finish(), "finish differs on {:?}", input);
        }
    }

    /// Family 5: the fused `parse_str` agrees with the materializing
    /// `parse_str_tokens`, and `Engine::lex_str_parallel` agrees with
    /// the sequential certified lexer, on random arith-ish raw text.
    #[test]
    fn fused_and_parallel_agree_with_materializing_paths(seed in 0u64..200) {
        let spec = PipelineSpec::arith_lexed();
        let engine = Engine::new();
        let pipeline = engine.get_or_compile(&spec).unwrap();
        let backend = pipeline.lexed_backend().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = String::new();
        for _ in 0..rng.gen_range(0..16) {
            match rng.gen_range(0..7) {
                0 => text.push('('),
                1 => text.push(')'),
                2 => text.push('+'),
                3 => text.push(' '),
                4 => text.push('#'), // not in the alphabet: lex error
                _ => {
                    for _ in 0..rng.gen_range(1..4) {
                        text.push(char::from(b'0' + rng.gen_range(0u8..10)));
                    }
                }
            }
        }
        let fused = backend.parse_str(&text).unwrap();
        let materialized = backend.parse_str_tokens(&text).unwrap();
        match (&fused, &materialized) {
            (
                StrOutcome::Accept { derivation: tf, tokens: tkf },
                StrOutcome::Accept { derivation: tm, .. },
            ) => {
                prop_assert_eq!(tf, tm, "trees differ on {:?}", text);
                prop_assert!(tkf.is_none(), "fused path materialized tokens on {:?}", text);
            }
            (
                StrOutcome::RejectParse { span: sf, message: mf, .. },
                StrOutcome::RejectParse { span: sm, message: mm, .. },
            ) => {
                prop_assert_eq!(sf, sm, "reject spans differ on {:?}", text);
                prop_assert_eq!(mf, mm, "reject messages differ on {:?}", text);
            }
            (StrOutcome::RejectLex(ef), StrOutcome::RejectLex(em)) => {
                prop_assert_eq!(ef, em, "lex errors differ on {:?}", text);
            }
            _ => prop_assert!(
                false,
                "fused {fused:?} disagrees with materialized {materialized:?} on {text:?}"
            ),
        }
        // Parallel certified lexing ≡ the sequential certified lexer,
        // for every chunk count.
        let seq = backend.lexer().lex(&text).unwrap();
        for chunks in [1usize, 2, 4, 8, text.len() + 1] {
            prop_assert_eq!(
                &engine.lex_str_parallel(&spec, &text, chunks).unwrap(),
                &seq,
                "{} chunks on {:?}",
                chunks,
                text
            );
        }
    }
}
