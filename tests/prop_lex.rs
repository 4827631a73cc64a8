//! Property suite for the certified lexing subsystem.
//!
//! Four families of properties:
//!
//! 1. on random token specs and random rule-shaped inputs, whenever the
//!    maximal-munch driver accepts, the lexeme spans concatenate back to
//!    exactly the input (the lexer-level intrinsic contract);
//! 2. the driver agrees — acceptance *and* token boundaries *and* rule
//!    choice — with a naive reference lexer that re-derives the longest
//!    match at every position straight from the regexes by Brzozowski
//!    derivatives;
//! 3. certified lexing composed with the LR backend agrees with Earley
//!    run on the same token string (the two-layer composition changes
//!    nothing about the language);
//! 4. skip rules never change the token-level yield: inserting skipped
//!    whitespace at token boundaries leaves the parser-visible string
//!    untouched.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lambek_cfg::earley::earley_recognize;
use lambek_core::alphabet::{Alphabet, GString};
use lambek_lex::demo::{arith_spec, arith_token_cfg};
use lambek_lex::spec::LexSpecBuilder;
use lambek_lex::{CertifiedLexer, LexAutomaton, LexedOutcome, Token};
use lambek_lr::CertifiedLrParser;
use regex_grammars::ast::Regex;
use regex_grammars::derivative::{derivative, matches};

/// A random non-nullable regex over `alphabet`: like
/// `regex_grammars::gen::random_regex` but guaranteed to never accept ε
/// (lex rules must not), by guarding nullable outcomes with a character.
fn random_rule_regex(alphabet: &Alphabet, size: usize, rng: &mut StdRng) -> Regex {
    let re = regex_grammars::gen::random_regex(alphabet, size, rng.gen());
    if re.nullable() {
        let c = lambek_core::alphabet::Symbol::from_index(rng.gen_range(0..alphabet.len()));
        Regex::concat(Regex::Char(c), re)
    } else {
        re
    }
}

/// A random spec: 2–4 prioritized rules over {a, b} (a tiny alphabet
/// maximizes overlap between rules, which is where priorities and
/// backtracking actually get exercised).
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

/// A random string some prefix-concatenation of rule languages accepts:
/// `k` samples drawn from random rules' regexes, concatenated. (The
/// lexer may still reject it — maximal munch can overshoot a boundary —
/// which is exactly what property 2 checks against the reference.)
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

/// The reference lexer: at each position, compute the longest prefix any
/// rule matches by stepping all regexes' derivatives in lockstep;
/// priority (smallest rule index) breaks length ties. No DFA, no tags,
/// no backtracking — a direct transcription of the maximal-munch
/// definition.
fn reference_lex(regexes: &[Regex], sigma: &Alphabet, input: &str) -> Option<Vec<(usize, usize)>> {
    let chars: Vec<char> = input.chars().collect();
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < chars.len() {
        let mut current: Vec<Regex> = regexes.to_vec();
        let mut best: Option<(usize, usize)> = None; // (rule, end)
        for (offset, &c) in chars[start..].iter().enumerate() {
            let Some(sym) = sigma.symbol_of_char(c) else {
                break;
            };
            for re in &mut current {
                *re = derivative(re, sym);
            }
            if let Some(rule) = current.iter().position(|re| re.nullable()) {
                best = Some((rule, start + offset + 1));
            }
            if current.iter().all(|re| *re == Regex::Empty) {
                break;
            }
        }
        let (rule, end) = best?;
        out.push((rule, end));
        start = end;
    }
    Some(out)
}

fn render(w: &GString, sigma: &Alphabet) -> String {
    sigma.display(w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: accepted inputs round-trip — the lexeme texts
    /// concatenate to exactly the input, and every lexeme re-matches
    /// its rule (the certified lexer asserts both internally; this
    /// re-asserts them from the outside on random specs).
    #[test]
    fn lexeme_concatenation_roundtrips(seed in 0u64..300) {
        let (auto, _) = random_spec(seed);
        let sigma = auto.spec().alphabet().clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let regexes: Vec<Regex> = auto.spec().rules().iter().map(|r| r.regex.clone()).collect();
        for k in 0..4 {
            let input = render(&random_rule_shaped_input(&regexes, k, &mut rng), &sigma);
            let lexer = CertifiedLexer::from_automaton(auto.clone());
            if let LexedOutcome::Tokens(ts) = lexer.lex(&input).unwrap() {
                let glued: String = ts.tokens().iter().map(|t| t.text.as_str()).collect();
                prop_assert_eq!(&glued, &input);
                for t in ts.tokens() {
                    let w = sigma.parse_str(&t.text).unwrap();
                    prop_assert!(matches(&auto.spec().rules()[t.rule].regex, &w));
                }
            }
        }
    }

    /// Property 2: the tagged-DFA driver and the derivative-based
    /// reference lexer agree exactly — on acceptance, boundaries, and
    /// rule choice — and the push-mode stream agrees with both.
    #[test]
    fn driver_agrees_with_naive_reference(seed in 0u64..300) {
        let (auto, regexes) = random_spec(seed);
        let sigma = auto.spec().alphabet().clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51f1);
        for k in 0..4 {
            let input = render(&random_rule_shaped_input(&regexes, k, &mut rng), &sigma);
            let fast = auto.lex_raw(&input);
            let reference = reference_lex(&regexes, &sigma, &input);
            match (&fast, &reference) {
                (Ok(tokens), Some(expected)) => {
                    let got: Vec<(usize, usize)> =
                        tokens.iter().map(|t| (t.rule, t.span.end)).collect();
                    prop_assert_eq!(&got, expected, "input {:?}", input);
                }
                (Err(_), None) => {}
                (fast, reference) => prop_assert!(
                    false,
                    "driver {fast:?} disagrees with reference {reference:?} on {input:?}"
                ),
            }
            // Stream form: same verdict, same tokens.
            let mut stream = auto.stream();
            let mut streamed: Vec<Token> = Vec::new();
            let mut failed = false;
            for c in input.chars() {
                match stream.push(c) {
                    Ok(ts) => streamed.extend(ts),
                    Err(_) => { failed = true; break; }
                }
            }
            if !failed {
                match stream.finish() {
                    Ok(ts) => streamed.extend(ts),
                    Err(_) => failed = true,
                }
            }
            match &fast {
                Ok(tokens) => {
                    prop_assert!(!failed, "stream died where one-shot lexed: {input:?}");
                    prop_assert_eq!(&streamed, tokens, "stream tokens differ on {:?}", input);
                }
                Err(_) => prop_assert!(failed, "stream lexed where one-shot died: {input:?}"),
            }
        }
    }

    /// Property 3: lex + LR and lex + Earley accept the same raw texts
    /// (and LR's certified trees yield the token string) — the
    /// composition preserves the token-level language.
    #[test]
    fn lexed_lr_agrees_with_earley_on_token_strings(seed in 0u64..200) {
        let cfg = arith_token_cfg();
        let lr = CertifiedLrParser::compile(&cfg).unwrap();
        let lexer = CertifiedLexer::compile(arith_spec());
        let mut rng = StdRng::seed_from_u64(seed);
        // Random arithmetic-ish text: tokens with random multi-digit
        // numerals, occasionally corrupted to exercise rejection.
        let mut text = String::new();
        for _ in 0..rng.gen_range(1..12) {
            match rng.gen_range(0..6) {
                0 => text.push('('),
                1 => text.push(')'),
                2 => text.push('+'),
                3 => text.push(' '),
                _ => {
                    for _ in 0..rng.gen_range(1..4) {
                        text.push(char::from(b'0' + rng.gen_range(0u8..10)));
                    }
                }
            }
        }
        if let LexedOutcome::Tokens(ts) = lexer.lex(&text).unwrap() {
            let w = ts.yield_string();
            let lr_out = lr.parse(w).unwrap();
            prop_assert_eq!(
                lr_out.is_accept(),
                earley_recognize(&cfg, w),
                "token string of {:?}",
                text
            );
            if let Some(log) = lr_out.accepted() {
                prop_assert_eq!(&log.to_parse_tree().flatten(), w);
            }
        }
    }

    /// Property 4: skip rules never change the token-level yield —
    /// spraying skippable whitespace between the tokens of a lexable
    /// input leaves `yield_string` identical.
    #[test]
    fn skip_rules_never_change_the_yield(seed in 0u64..200) {
        let lexer = CertifiedLexer::compile(arith_spec());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tokens_text: Vec<String> = Vec::new();
        for _ in 0..rng.gen_range(0..10) {
            tokens_text.push(match rng.gen_range(0..4) {
                0 => "(".to_owned(),
                1 => ")".to_owned(),
                2 => "+".to_owned(),
                _ => format!("{}", rng.gen_range(0..1000)),
            });
        }
        // NUM NUM with nothing between would re-lex as one numeral, so
        // the base text always separates tokens with one space; the
        // spaced variant adds more.
        let base = tokens_text.join(" ");
        let mut spaced = String::new();
        for t in &tokens_text {
            for _ in 0..rng.gen_range(1..4) {
                spaced.push(' ');
            }
            spaced.push_str(t);
        }
        let a = lexer.lex(&base).unwrap();
        let b = lexer.lex(&spaced).unwrap();
        prop_assert!(
            a.is_accept() && b.is_accept(),
            "space-joined tokens must lex: {base:?} / {spaced:?}"
        );
        let (Some(a), Some(b)) = (a.tokens(), b.tokens()) else {
            unreachable!("asserted accepted above")
        };
        prop_assert_eq!(a.yield_string(), b.yield_string(), "{:?} vs {:?}", base, spaced);
    }
}
