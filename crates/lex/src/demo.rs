//! Demonstration token languages: the raw-text workloads the lexing
//! layer opens up, shared by the examples, property tests, and benches.
//!
//! Two languages, each a `(LexSpec, Cfg)` pair whose token alphabet and
//! grammar alphabet coincide — the composition contract of the engine's
//! `lexed_cfg` pipelines:
//!
//! * **arithmetic** — the paper's Fig. 15 expression grammar, but over
//!   raw text with multi-character numerals and whitespace (the char
//!   alphabet is digits, `+`, parentheses and space; the token alphabet
//!   is exactly [`Alphabet::arith`], so [`exp_cfg`] plugs straight in);
//! * **JSON subset** — objects, arrays, strings, integers, `true` /
//!   `false` / `null`, with a skip rule for spaces; the grammar is the
//!   usual LALR(1) JSON skeleton.

use lambek_automata::lookahead::ArithTokens;
use lambek_cfg::expr::exp_cfg;
use lambek_cfg::grammar::{Cfg, GSym, Production};
use lambek_core::alphabet::Alphabet;
use regex_grammars::ast::Regex;

use crate::spec::{class, literal, plus, LexSpec, LexSpecBuilder};

/// The character alphabet of the raw arithmetic language: digits, the
/// three operators of [`Alphabet::arith`], and space.
pub fn arith_chars() -> Alphabet {
    Alphabet::from_chars("0123456789+() ")
}

/// The arithmetic lex spec: `(`, `)`, `+`, multi-digit `NUM`, skipped
/// whitespace. Its token alphabet equals [`Alphabet::arith`], so it
/// composes with [`exp_cfg`].
pub fn arith_spec() -> LexSpec {
    let sigma = arith_chars();
    let digits = class(&sigma, "0123456789");
    LexSpecBuilder::new(sigma.clone())
        // `(` and `)` are grouping in the concrete regex syntax, so the
        // paren tokens are spelled as literals.
        .token_re("(", literal(&sigma, "("))
        .expect("valid rule")
        .token_re(")", literal(&sigma, ")"))
        .expect("valid rule")
        .token("+", "+")
        .expect("valid rule")
        .token_re("NUM", plus(digits))
        .expect("valid rule")
        .skip_re("WS", plus(class(&sigma, " ")))
        .expect("valid rule")
        .build()
        .expect("valid spec")
}

/// The token-level arithmetic grammar matching [`arith_spec`]: the
/// Fig. 15 `Exp`/`Atom` CFG over `{(, ), +, NUM}`.
pub fn arith_token_cfg() -> Cfg {
    exp_cfg(&ArithTokens::new())
}

/// The same arithmetic language stated directly over *characters* —
/// `NUM` expanded to `Num ::= D Num | D` — the baseline a char-level
/// Earley parser runs on so the lex+LR pipeline has something fair to
/// race (no whitespace: the char grammar has no skip channel).
pub fn arith_char_cfg() -> Cfg {
    let sigma = arith_chars();
    let sym = |c: char| GSym::T(sigma.symbol_of_char(c).expect("in alphabet"));
    const EXP: usize = 0;
    const ATOM: usize = 1;
    const NUM: usize = 2;
    const DIGIT: usize = 3;
    Cfg::new(
        sigma.clone(),
        vec![
            "Exp".to_owned(),
            "Atom".to_owned(),
            "Num".to_owned(),
            "Digit".to_owned(),
        ],
        vec![
            vec![
                Production {
                    rhs: vec![GSym::N(ATOM)],
                },
                Production {
                    rhs: vec![GSym::N(ATOM), sym('+'), GSym::N(EXP)],
                },
            ],
            vec![
                Production {
                    rhs: vec![GSym::N(NUM)],
                },
                Production {
                    rhs: vec![sym('('), GSym::N(EXP), sym(')')],
                },
            ],
            vec![
                Production {
                    rhs: vec![GSym::N(DIGIT), GSym::N(NUM)],
                },
                Production {
                    rhs: vec![GSym::N(DIGIT)],
                },
            ],
            ('0'..='9')
                .map(|d| Production { rhs: vec![sym(d)] })
                .collect(),
        ],
        EXP,
    )
}

/// The character alphabet of the JSON subset: structural characters,
/// double quote, space, lowercase letters and digits.
pub fn json_chars() -> Alphabet {
    Alphabet::from_chars("{}[]:,\" abcdefghijklmnopqrstuvwxyz0123456789")
}

/// The JSON-subset lex spec: structural tokens, the three keyword
/// literals, quoted strings (letters, digits and spaces inside),
/// integers, and skipped whitespace. Keywords are declared before the
/// string/number rules purely for readability — their languages are
/// disjoint; priority only matters for overlapping rules.
pub fn json_spec() -> LexSpec {
    let sigma = json_chars();
    let letters = class(&sigma, "abcdefghijklmnopqrstuvwxyz");
    let digits = class(&sigma, "0123456789");
    let quote = literal(&sigma, "\"");
    let inner = Regex::alt(Regex::alt(letters, digits.clone()), class(&sigma, " "));
    let string = Regex::concat(
        quote.clone(),
        Regex::concat(Regex::star(inner), quote.clone()),
    );
    LexSpecBuilder::new(sigma.clone())
        .token("{", "{")
        .expect("valid rule")
        .token("}", "}")
        .expect("valid rule")
        .token("[", "[")
        .expect("valid rule")
        .token("]", "]")
        .expect("valid rule")
        .token(":", ":")
        .expect("valid rule")
        .token(",", ",")
        .expect("valid rule")
        .token_re("true", literal(&sigma, "true"))
        .expect("valid rule")
        .token_re("false", literal(&sigma, "false"))
        .expect("valid rule")
        .token_re("null", literal(&sigma, "null"))
        .expect("valid rule")
        .token_re("STR", string)
        .expect("valid rule")
        .token_re("NUM", plus(digits))
        .expect("valid rule")
        .skip_re("WS", plus(class(&sigma, " ")))
        .expect("valid rule")
        .build()
        .expect("valid spec")
}

/// The token-level JSON-subset grammar over [`json_spec`]'s token
/// alphabet — the standard LALR(1) skeleton:
///
/// ```text
/// Value   ::= STR | NUM | true | false | null | Object | Array
/// Object  ::= { } | { Members }
/// Members ::= Pair | Members , Pair
/// Pair    ::= STR : Value
/// Array   ::= [ ] | [ Elements ]
/// Elements::= Value | Elements , Value
/// ```
pub fn json_cfg() -> Cfg {
    let tokens = json_spec().token_alphabet().clone();
    let t = |name: &str| GSym::T(tokens.symbol(name).expect("token name"));
    const VALUE: usize = 0;
    const OBJECT: usize = 1;
    const MEMBERS: usize = 2;
    const PAIR: usize = 3;
    const ARRAY: usize = 4;
    const ELEMENTS: usize = 5;
    Cfg::new(
        tokens.clone(),
        vec![
            "Value".to_owned(),
            "Object".to_owned(),
            "Members".to_owned(),
            "Pair".to_owned(),
            "Array".to_owned(),
            "Elements".to_owned(),
        ],
        vec![
            vec![
                Production {
                    rhs: vec![t("STR")],
                },
                Production {
                    rhs: vec![t("NUM")],
                },
                Production {
                    rhs: vec![t("true")],
                },
                Production {
                    rhs: vec![t("false")],
                },
                Production {
                    rhs: vec![t("null")],
                },
                Production {
                    rhs: vec![GSym::N(OBJECT)],
                },
                Production {
                    rhs: vec![GSym::N(ARRAY)],
                },
            ],
            vec![
                Production {
                    rhs: vec![t("{"), t("}")],
                },
                Production {
                    rhs: vec![t("{"), GSym::N(MEMBERS), t("}")],
                },
            ],
            vec![
                Production {
                    rhs: vec![GSym::N(PAIR)],
                },
                Production {
                    rhs: vec![GSym::N(MEMBERS), t(","), GSym::N(PAIR)],
                },
            ],
            vec![Production {
                rhs: vec![t("STR"), t(":"), GSym::N(VALUE)],
            }],
            vec![
                Production {
                    rhs: vec![t("["), t("]")],
                },
                Production {
                    rhs: vec![t("["), GSym::N(ELEMENTS), t("]")],
                },
            ],
            vec![
                Production {
                    rhs: vec![GSym::N(VALUE)],
                },
                Production {
                    rhs: vec![GSym::N(ELEMENTS), t(","), GSym::N(VALUE)],
                },
            ],
        ],
        VALUE,
    )
}

/// A deterministic arithmetic text of roughly `bytes` bytes (numbers of
/// varying widths joined by `+`, with parenthesized groups sprinkled
/// in) — the bench and test workload generator.
pub fn arith_text(bytes: usize) -> String {
    let mut out = String::with_capacity(bytes + 16);
    let mut n: u64 = 1;
    out.push('1');
    let mut depth = 0usize;
    while out.len() < bytes {
        n = n
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match n % 7 {
            0 if depth < 8 => {
                out.push_str("+(");
                out.push_str(&format!("{}", n % 1000));
                depth += 1;
            }
            1 if depth > 0 => {
                out.push(')');
                depth -= 1;
            }
            _ => {
                out.push('+');
                out.push_str(&format!("{}", n % 100000));
            }
        }
    }
    for _ in 0..depth {
        out.push(')');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certified::{CertifiedLexer, LexedOutcome};

    #[test]
    fn arith_spec_composes_with_the_fig15_grammar() {
        assert_eq!(arith_spec().token_alphabet(), arith_token_cfg().alphabet());
    }

    #[test]
    fn json_spec_composes_with_the_json_grammar() {
        assert_eq!(json_spec().token_alphabet(), json_cfg().alphabet());
    }

    #[test]
    fn json_text_lexes() {
        let lexer = CertifiedLexer::compile(json_spec()).unwrap();
        let out = lexer
            .lex("{\"name\": \"ada\", \"age\": 36, \"tags\": [true, null]}")
            .unwrap();
        let LexedOutcome::Tokens(ts) = out else {
            panic!("valid JSON subset must lex");
        };
        let tokens = lexer.spec().token_alphabet();
        let names: Vec<&str> = ts.yield_string().iter().map(|s| tokens.name(s)).collect();
        assert_eq!(
            names,
            [
                "{", "STR", ":", "STR", ",", "STR", ":", "NUM", ",", "STR", ":", "[", "true", ",",
                "null", "]", "}"
            ]
        );
    }

    #[test]
    fn arith_text_is_lexable_at_every_size() {
        let lexer = CertifiedLexer::compile(arith_spec()).unwrap();
        for bytes in [16, 256, 1024] {
            let text = arith_text(bytes);
            assert!(text.len() >= bytes);
            assert!(lexer.lex(&text).unwrap().is_accept(), "{bytes}");
        }
    }
}
