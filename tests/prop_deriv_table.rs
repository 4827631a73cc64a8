//! Property suite for the eager derivative tables the lex certifier
//! walks (`regex_grammars::deriv_table`), against the derivative
//! matcher they replace on the hot path.
//!
//! 1. the table walk agrees with `derivative::matches`, the oracle, on
//!    every string up to length 6 over `"ab"` and `"abc"`, for random
//!    lex-rule regexes and a fixed set of classics;
//! 2. the table over the regex's symbol classes agrees with the table
//!    over the whole alphabet (one class per symbol);
//! 3. ACI normalization preserves the language;
//! 4. every preset grammar's lexer, and the bootstrap meta lexer, build
//!    their tables under the state cap;
//! 5. tables over the class quotient (each group of `Char` leaves
//!    lowered to its classes' representatives) agree with the oracle on
//!    wide-class rules over a 48-symbol alphabet;
//! 6. on every preset, the meta lexer and a generated expression
//!    grammar, each rule's quotient table has as many states as the
//!    table over the whole alphabet, where every symbol is its own
//!    class and nothing is lowered.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lambek_core::alphabet::{Alphabet, GString, Symbol};
use lambek_core::theory::unambiguous::all_strings;
use lambek_lex::{CertifiedLexer, MAX_CERTIFIER_STATES};
use regex_grammars::ast::{parse_regex, Regex};
use regex_grammars::deriv_table::{normalize, DerivTable, StateCapExceeded, SymbolClasses};
use regex_grammars::derivative::matches as slow_matches;

/// The classics every table must get right, `∅` and `ε` included.
const FIXED: [&str; 9] = [
    "a", "a*", "(a|b)*c", "a(b|c)*", "ab|ba", "(ab)*", "a*b*c*", "∅", "ε",
];

fn table(re: &Regex, alphabet: &Alphabet) -> Result<DerivTable, StateCapExceeded> {
    DerivTable::build(
        re,
        SymbolClasses::of_regex(re, alphabet.len()),
        MAX_CERTIFIER_STATES,
    )
}

/// A random non-nullable regex, drawn exactly as `prop_lex` draws its
/// lex rules (the generator whose derivatives diverge without ACI
/// normalization).
fn random_rule_regex(alphabet: &Alphabet, size: usize, rng: &mut StdRng) -> Regex {
    let re = regex_grammars::gen::random_regex(alphabet, size, rng.gen());
    if re.nullable() {
        let c = Symbol::from_index(rng.gen_range(0..alphabet.len()));
        Regex::concat(Regex::Char(c), re)
    } else {
        re
    }
}

fn random_regexes(chars: &str, seed: u64) -> (Alphabet, Vec<Regex>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma = Alphabet::from_chars(chars);
    let regexes = (0..4)
        .map(|_| {
            let size = rng.gen_range(1..10);
            random_rule_regex(&sigma, size, &mut rng)
        })
        .collect();
    (sigma, regexes)
}

#[test]
fn agrees_with_the_reference_matcher_exhaustively() {
    let s = Alphabet::abc();
    for src in FIXED {
        let re = parse_regex(&s, src).unwrap();
        let fast = table(&re, &s).unwrap();
        for w in all_strings(&s, 5) {
            assert_eq!(
                fast.matches_str(&s, &s.display(&w)),
                slow_matches(&re, &w),
                "{src} on {w}"
            );
        }
    }
}

#[test]
fn memoization_converges_to_finitely_many_states() {
    let s = Alphabet::abc();
    let re = parse_regex(&s, "(a|b)*c").unwrap();
    let fast = table(&re, &s).unwrap();
    for w in all_strings(&s, 6) {
        fast.matches_str(&s, &s.display(&w));
    }
    let settled = fast.num_states();
    for w in all_strings(&s, 6) {
        fast.matches_str(&s, &s.display(&w));
    }
    // A second sweep discovers nothing new: the table was complete
    // when it was built.
    assert_eq!(fast.num_states(), settled);
    assert!(settled <= 8, "derivative DFA stays small: {settled}");
}

#[test]
fn matcher_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DerivTable>();
}

/// Property 1 on the fixed classics, over both alphabets.
#[test]
fn fixed_regexes_agree_with_the_oracle_up_to_length_6() {
    for chars in ["ab", "abc"] {
        let sigma = Alphabet::from_chars(chars);
        for src in FIXED {
            let Ok(re) = parse_regex(&sigma, src) else {
                continue; // mentions c, absent from "ab"
            };
            let fast = table(&re, &sigma).unwrap();
            for w in all_strings(&sigma, 6) {
                let text = sigma.display(&w);
                assert_eq!(
                    fast.matches_str(&sigma, &text),
                    slow_matches(&re, &w),
                    "{src} on {w}"
                );
            }
        }
    }
}

/// 48 symbols: wide enough that a rule's classes are far fewer than
/// its alphabet, as in real lexers.
const WIDE: &str = "abcdefghijklmnopqrstuvwxyz0123456789_+-*/=<>!?.,";

/// A random character class over `sigma`: one run of symbols (`[a-z]`)
/// or two (`[a-z0-9]`), as member indices.
fn random_class(sigma: &Alphabet, rng: &mut StdRng) -> Vec<usize> {
    let n = sigma.len();
    let mut members = Vec::new();
    for _ in 0..rng.gen_range(1..3) {
        let lo = rng.gen_range(0..n);
        members.extend(lo..rng.gen_range(lo..(lo + 27).min(n)) + 1);
    }
    members
}

/// A random regex whose leaves are character classes, as a nested
/// alternation of `Char`s; each class it uses is pushed onto `classes`.
fn wide_regex(
    sigma: &Alphabet,
    size: usize,
    rng: &mut StdRng,
    classes: &mut Vec<Vec<usize>>,
) -> Regex {
    if size <= 1 {
        let members = random_class(sigma, rng);
        let mut leaves = members
            .iter()
            .rev()
            .map(|&i| Regex::Char(Symbol::from_index(i)));
        let last = leaves.next().expect("a class has a member");
        let class = leaves.fold(last, |acc, c| Regex::alt(c, acc));
        classes.push(members);
        return class;
    }
    let left = rng.gen_range(1..size);
    match rng.gen_range(0..8) {
        0..=3 => Regex::concat(
            wide_regex(sigma, left, rng, classes),
            wide_regex(sigma, size - left, rng, classes),
        ),
        4..=5 => Regex::alt(
            wide_regex(sigma, left, rng, classes),
            wide_regex(sigma, size - left, rng, classes),
        ),
        _ => Regex::star(wide_regex(sigma, size - 1, rng, classes)),
    }
}

/// A string of up to 7 symbols, each a member of one of `classes` (so
/// the rule has a fair chance to match) or, one time in six, any symbol.
fn class_string(sigma: &Alphabet, classes: &[Vec<usize>], rng: &mut StdRng) -> GString {
    let symbols = (0..rng.gen_range(0..8))
        .map(|_| {
            if rng.gen_range(0..6) == 0 {
                Symbol::from_index(rng.gen_range(0..sigma.len()))
            } else {
                let class = &classes[rng.gen_range(0..classes.len())];
                Symbol::from_index(class[rng.gen_range(0..class.len())])
            }
        })
        .collect();
    GString::from_symbols(symbols)
}

/// A random member of `re`'s language: one operand of each
/// alternation, up to two rounds of each star.
fn sample(re: &Regex, rng: &mut StdRng, out: &mut Vec<Symbol>) {
    match re {
        Regex::Empty => unreachable!("the generator draws no ∅"),
        Regex::Eps => {}
        Regex::Char(c) => out.push(*c),
        Regex::Concat(l, r) => {
            sample(l, rng, out);
            sample(r, rng, out);
        }
        Regex::Alt(l, r) => sample(if rng.gen_bool(0.5) { l } else { r }, rng, out),
        Regex::Star(inner) => (0..rng.gen_range(0..3)).for_each(|_| sample(inner, rng, out)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 5 on random wide-class rules such as `[a-z][a-z0-9]*`,
    /// on members of the rule's language and on strings of its classes'
    /// symbols.
    #[test]
    fn quotient_tables_agree_with_the_oracle_on_wide_classes(seed in 0u64..1_000_000) {
        let sigma = Alphabet::from_chars(WIDE);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut classes = Vec::new();
        let size = rng.gen_range(1..8);
        let mut re = wide_regex(&sigma, size, &mut rng, &mut classes);
        if re.nullable() {
            let mut first = Vec::new();
            re = Regex::concat(wide_regex(&sigma, 1, &mut rng, &mut first), re);
            classes.extend(first);
        }
        let partition = SymbolClasses::of_regex(&re, sigma.len());
        prop_assert!(partition.len() < sigma.len(), "{} classes", partition.len());
        let fast = table(&re, &sigma).unwrap();
        for i in 0..200 {
            let w = if i % 2 == 0 {
                let mut member = Vec::new();
                sample(&re, &mut rng, &mut member);
                GString::from_symbols(member)
            } else {
                class_string(&sigma, &classes, &mut rng)
            };
            let oracle = slow_matches(&re, &w);
            prop_assert!(oracle || i % 2 == 1, "a sampled member is in the language");
            prop_assert_eq!(
                fast.matches_str(&sigma, &sigma.display(&w)),
                oracle,
                "{} on {}", re.display(&sigma), w
            );
        }
    }

    /// Properties 1 and 2 on random lex-rule regexes.
    #[test]
    fn table_walk_agrees_with_oracle_and_full_alphabet_table(
        seed in 0u64..1_000,
        wide in 0u8..2,
    ) {
        let (sigma, regexes) = random_regexes(if wide == 1 { "abc" } else { "ab" }, seed);
        for re in &regexes {
            let classes = SymbolClasses::of_regex(re, sigma.len());
            prop_assert!(classes.len() <= sigma.len());
            let fast = table(re, &sigma).unwrap();
            let full = DerivTable::build(
                re,
                SymbolClasses::singletons(sigma.len()),
                MAX_CERTIFIER_STATES,
            )
            .unwrap();
            prop_assert!(fast.num_states() <= full.num_states());
            for w in all_strings(&sigma, 6) {
                let oracle = slow_matches(re, &w);
                let text = sigma.display(&w);
                prop_assert_eq!(fast.matches_str(&sigma, &text), oracle, "{} on {}", re, w);
                prop_assert_eq!(full.matches_str(&sigma, &text), oracle, "full table: {} on {}", re, w);
            }
        }
    }

    /// Property 3: normalization changes the syntax, never the language.
    #[test]
    fn aci_normalization_preserves_the_language(seed in 0u64..1_000) {
        let sigma = Alphabet::abc();
        let mut rng = StdRng::seed_from_u64(seed);
        let re = regex_grammars::gen::random_regex(&sigma, rng.gen_range(1..14), rng.gen());
        // Pile on redundancy for the normalization to remove.
        let noisy = Regex::alt(
            Regex::alt(Regex::Empty, re.clone()),
            Regex::alt(re.clone(), Regex::concat(Regex::Eps, re.clone())),
        );
        let norm = normalize(noisy);
        prop_assert_eq!(normalize(norm.clone()), norm.clone(), "idempotent");
        for w in all_strings(&sigma, 5) {
            prop_assert_eq!(slow_matches(&norm, &w), slow_matches(&re, &w), "{} on {}", re, w);
        }
    }
}

/// A character outside the alphabet never matches, and the walk reads
/// multi-byte characters as single symbols.
#[test]
fn string_walk_reads_characters_not_bytes() {
    let sigma = Alphabet::from_chars("aß∂");
    let re = parse_regex(&sigma, "a(ß|∂)*").unwrap();
    let fast = table(&re, &sigma).unwrap();
    assert!(fast.matches_str(&sigma, "aß∂ß"));
    assert!(!fast.matches_str(&sigma, "aßx"));
    assert!(!fast.matches_str(&sigma, "ß"));
}

/// Property 4: real grammars fit the cap with room to spare.
#[test]
fn presets_and_the_meta_lexer_build_under_the_cap() {
    let engine = lambek_engine::Engine::new();
    for (name, text) in lambek_frontend::presets::all() {
        engine
            .compile_text(text)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let ast = lambek_frontend::parse_text(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let elab =
            lambek_frontend::elaborate(text, &ast).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        CertifiedLexer::compile(elab.spec).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    CertifiedLexer::compile(lambek_frontend::meta_spec()).expect("meta lexer");
    CertifiedLexer::compile(lambek_lex::demo::json_spec()).expect("demo json lexer");
    CertifiedLexer::compile(lambek_lex::demo::arith_spec()).expect("demo arith lexer");
}

/// Property 6: lowering to the class quotient never changes how many
/// derivatives a real rule has.
#[test]
fn quotient_tables_have_the_unlowered_state_count() {
    let churn = "token NUM = [0-9]+ ;\ntoken ID = [a-z] [a-z0-9]* ;\n\
                 skip WS = [ \\n]+ ;\nE0 ::= E0 '+' E1 | E0 '<<' E1 | E1 ;\n\
                 E1 ::= E2 '**' E1 | E2 '->' E1 | E2 ;\nE2 ::= NUM | ID | '(' E0 ')' ;\n";
    let mut texts = vec![("churn", churn)];
    texts.extend(lambek_frontend::presets::all());
    let mut specs: Vec<_> = texts
        .into_iter()
        .map(|(name, text)| {
            let ast = lambek_frontend::parse_text(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let elab =
                lambek_frontend::elaborate(text, &ast).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            (name, elab.spec)
        })
        .collect();
    specs.push(("meta", lambek_frontend::meta_spec()));
    for (name, spec) in &specs {
        let sigma = spec.alphabet();
        for rule in spec.rules() {
            let lowered = table(&rule.regex, sigma).unwrap();
            let whole = DerivTable::build(
                &rule.regex,
                SymbolClasses::singletons(sigma.len()),
                MAX_CERTIFIER_STATES,
            )
            .unwrap();
            assert_eq!(
                lowered.num_states(),
                whole.num_states(),
                "{name} rule {}",
                rule.name
            );
        }
    }
}
