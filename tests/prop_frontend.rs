//! Property suite for the self-hosted grammar frontend. Four
//! contracts:
//!
//! 1. **Round-trip**: pretty-printing a parsed spec and re-parsing it
//!    reproduces the same AST (modulo spans), and pretty-printing is
//!    idempotent — the canonical form is a fixed point.
//! 2. **Structural cache sharing**: textually different but
//!    structurally equal submissions compile to the *same* cached
//!    pipeline (`Arc` identity), because the cache key is interned
//!    from the elaborated spec's content, not the source text.
//! 3. **Diagnostic spans**: every elaboration error variant carries an
//!    in-bounds source span and a 1-based line/column.
//! 4. **Differential equivalence**: a pipeline compiled from grammar
//!    *text* is observationally identical to the equivalent Rust-built
//!    pipeline — accept/reject parity and isomorphic parse trees
//!    (compared through token-name translation) on the arithmetic and
//!    JSON-subset grammars, over random inputs that include unlexable
//!    and ill-formed ones.

use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lambekd::cfg::grammar::{Cfg, GSym};
use lambekd::core::grammar::parse_tree::ParseTree;
use lambekd::engine::{Engine, FrontendErrorKind, FrontendReport, PipelineSpec, StrOutcome};
use lambekd::frontend::surface::ast_eq_modulo_spans;
use lambekd::frontend::{compile_text, parse_text, pretty, Budgets};

// ---------------------------------------------------------------------
// 1. Pretty-print round-trip on randomly generated specs
// ---------------------------------------------------------------------

/// Emits a random identifier.
fn gen_ident(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..5);
    (0..len)
        .map(|i| {
            let c = char::from(b'a' + rng.gen_range(0u8..26));
            if i == 0 && rng.gen_bool(0.3) {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// Emits a random literal body (printable, quote-free for simplicity;
/// escapes are covered by the preset round-trip).
fn gen_literal(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..4);
    let pool = "abcxyz+-*/<>=!0123456789";
    let pool: Vec<char> = pool.chars().collect();
    (0..len)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect()
}

/// Emits a random surface regex, as text.
fn gen_regex(rng: &mut StdRng, depth: usize) -> String {
    let choice = if depth == 0 {
        rng.gen_range(0..2)
    } else {
        rng.gen_range(0..6)
    };
    match choice {
        0 => format!("'{}'", gen_literal(rng)),
        1 => {
            let classes = ["[a-z]", "[0-9]", "[abc]", "[A-Za-z_]", "[ \\t]"];
            classes[rng.gen_range(0..classes.len())].to_string()
        }
        2 => format!(
            "{} | {}",
            gen_regex(rng, depth - 1),
            gen_regex(rng, depth - 1)
        ),
        3 => format!(
            "{} {}",
            gen_regex(rng, depth - 1),
            gen_regex(rng, depth - 1)
        ),
        4 => {
            let op = ["*", "+", "?"][rng.gen_range(0usize..3)];
            format!("( {} ){}", gen_regex(rng, depth - 1), op)
        }
        _ => format!("( {} )", gen_regex(rng, depth - 1)),
    }
}

/// Emits a random syntactically valid spec text: token/skip/start/
/// alphabet declarations and rules whose productions reference random
/// identifiers and literals. Validity is *syntactic* — elaboration may
/// reject it, but the bootstrap parser must accept it, which is all the
/// round-trip property needs.
fn gen_spec_text(rng: &mut StdRng) -> String {
    let mut out = String::new();
    if rng.gen_bool(0.3) {
        out.push_str("alphabet [ -~] ;\n");
    }
    for _ in 0..rng.gen_range(1..4) {
        let kw = if rng.gen_bool(0.8) { "token" } else { "skip" };
        out.push_str(&format!(
            "{kw} {} = {} ;\n",
            gen_ident(rng),
            gen_regex(rng, 2)
        ));
    }
    if rng.gen_bool(0.4) {
        out.push_str(&format!("start {} ;\n", gen_ident(rng)));
    }
    for _ in 0..rng.gen_range(1..4) {
        let alts: Vec<String> = (0..rng.gen_range(1..4))
            .map(|_| {
                let syms: Vec<String> = (0..rng.gen_range(0..4))
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            gen_ident(rng)
                        } else {
                            format!("'{}'", gen_literal(rng))
                        }
                    })
                    .collect();
                syms.join(" ")
            })
            .collect();
        out.push_str(&format!("{} ::= {} ;\n", gen_ident(rng), alts.join(" | ")));
    }
    out
}

// ---------------------------------------------------------------------
// 4. Differential equivalence helpers
// ---------------------------------------------------------------------

/// Serializes a derivation tree to a canonical s-expression over
/// nonterminal names, alternative indices and (renamed) token names —
/// the isomorphism witness two structurally mirrored grammars are
/// compared through.
fn shape(cfg: &Cfg, nt: usize, tree: &ParseTree, rename: &dyn Fn(&str) -> String) -> String {
    let ParseTree::Roll(inner) = tree else {
        panic!("expected Roll at {}", cfg.name(nt));
    };
    let ParseTree::Inj { index, tree: body } = &**inner else {
        panic!("expected Inj at {}", cfg.name(nt));
    };
    let rhs = &cfg.alternatives(nt)[*index].rhs;
    let mut kids: Vec<&ParseTree> = Vec::with_capacity(rhs.len());
    let mut cur: &ParseTree = body;
    for i in 0..rhs.len() {
        if i + 1 == rhs.len() {
            kids.push(cur);
        } else {
            let ParseTree::Pair(l, r) = cur else {
                panic!("expected Pair at {}", cfg.name(nt));
            };
            kids.push(l);
            cur = r;
        }
    }
    let mut out = format!("({}:{}", cfg.name(nt), index);
    for (sym, kid) in rhs.iter().zip(kids) {
        out.push(' ');
        match sym {
            GSym::T(s) => {
                assert!(matches!(kid, ParseTree::Char(c) if c == s), "leaf mismatch");
                out.push_str(&rename(cfg.alphabet().name(*s)));
            }
            GSym::N(n) => out.push_str(&shape(cfg, *n, kid, rename)),
        }
    }
    out.push(')');
    out
}

/// Strips the quotes a frontend implicit-literal token name carries
/// (`'{'` → `{`), so frontend and Rust-built token names align.
fn unquote(name: &str) -> String {
    if name.len() >= 2 && name.starts_with('\'') && name.ends_with('\'') {
        name[1..name.len() - 1].to_string()
    } else {
        name.to_string()
    }
}

/// Asserts the text-built and Rust-built pipelines agree on `input`:
/// same verdict, and for accepts the same tree shape modulo token
/// naming.
fn assert_pipelines_agree(
    text_pipeline: &lambekd::engine::PipelineHandle,
    rust_pipeline: &std::sync::Arc<lambekd::engine::CompiledPipeline>,
    input: &str,
) -> Result<(), TestCaseError> {
    let tb = text_pipeline.pipeline.lexed_backend().expect("lexed");
    let rb = rust_pipeline.lexed_backend().expect("lexed");
    let to = tb.parse_str(input).expect("certified parse");
    let ro = rb.parse_str(input).expect("certified parse");
    prop_assert_eq!(
        to.is_accept(),
        ro.is_accept(),
        "verdict mismatch on {:?}",
        input
    );
    if let (StrOutcome::Accept { derivation: tt, .. }, StrOutcome::Accept { derivation: rt, .. }) =
        (&to, &ro)
    {
        let tcfg = tb.cfg_backend().cfg();
        let rcfg = rb.cfg_backend().cfg();
        let ts = shape(tcfg, tcfg.start(), &tt.to_parse_tree(), &unquote);
        let rs = shape(rcfg, rcfg.start(), &rt.to_parse_tree(), &|n| n.to_string());
        prop_assert_eq!(ts, rs, "tree mismatch on {:?}", input);
    }
    Ok(())
}

/// The arithmetic grammar as text, mirroring `arith_spec` +
/// `exp_cfg` (same alternative order, same token languages, same
/// character set).
const ARITH_TEXT: &str = "\
token NUM = [0-9]+ ;\n\
skip WS = ' '+ ;\n\
start Exp ;\n\
Exp ::= Atom | Atom '+' Exp ;\n\
Atom ::= NUM | '(' Exp ')' ;\n";

/// The JSON-subset grammar as text, mirroring `json_spec` + `json_cfg`
/// from `lambek_lex::demo` (same restricted STR/NUM token languages,
/// same character alphabet, same production order).
const JSON_TEXT: &str = "\
alphabet [ a-z0-9{}:,\"\\[\\]] ;\n\
token STR = '\"' [ a-z0-9]* '\"' ;\n\
token NUM = [0-9]+ ;\n\
skip WS = ' '+ ;\n\
start Value ;\n\
Value ::= STR | NUM | 'true' | 'false' | 'null' | Object | Array ;\n\
Object ::= '{' '}' | '{' Members '}' ;\n\
Members ::= Pair | Members ',' Pair ;\n\
Pair ::= STR ':' Value ;\n\
Array ::= '[' ']' | '[' Elements ']' ;\n\
Elements ::= Value | Elements ',' Value ;\n";

/// One engine for the whole differential suite: the meta pipeline and
/// the four compared pipelines are compiled once, not once per proptest
/// case — the cases only vary the *inputs*.
fn shared_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::new)
}

/// A random arithmetic input: mostly well-formed fragments, sometimes
/// garbage (unbalanced, unlexable, empty) — rejection parity matters as
/// much as acceptance parity.
fn random_arith(rng: &mut StdRng) -> String {
    let mut out = String::new();
    for _ in 0..rng.gen_range(0..12) {
        match rng.gen_range(0..8) {
            0 => out.push('('),
            1 => out.push(')'),
            2 => out.push('+'),
            3 => out.push(' '),
            4 if rng.gen_bool(0.2) => out.push('x'), // unlexable
            _ => out.push(char::from(b'0' + rng.gen_range(0u8..10))),
        }
    }
    out
}

/// A random JSON-subset value (well-formed with high probability).
fn random_json(rng: &mut StdRng, depth: usize) -> String {
    match if depth == 0 {
        rng.gen_range(0..5)
    } else {
        rng.gen_range(0..7)
    } {
        0 => "true".to_string(),
        1 => "false".to_string(),
        2 => "null".to_string(),
        3 => format!("{}", rng.gen_range(0..1000)),
        4 => {
            let len = rng.gen_range(0..6);
            let body: String = (0..len)
                .map(|_| {
                    let pool = b"abc xyz012";
                    char::from(pool[rng.gen_range(0..pool.len())])
                })
                .collect();
            format!("\"{body}\"")
        }
        5 => {
            let items: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| random_json(rng, depth - 1))
                .collect();
            format!("[{}]", items.join(", "))
        }
        _ => {
            let pairs: Vec<String> = (0..rng.gen_range(0..4))
                .map(|i| format!("\"k{i}\": {}", random_json(rng, depth - 1)))
                .collect();
            format!("{{{}}}", pairs.join(", "))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contract 1: parse → pretty → reparse is the identity modulo
    /// spans, and pretty is idempotent, on random generated specs.
    #[test]
    fn generated_specs_roundtrip_through_pretty(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = gen_spec_text(&mut rng);
        let ast = parse_text(&text)
            .unwrap_or_else(|e| panic!("generated spec must parse: {e}\n{text}"));
        let printed = pretty(&ast);
        let ast2 = parse_text(&printed)
            .unwrap_or_else(|e| panic!("pretty output must reparse: {e}\n{printed}"));
        prop_assert!(
            ast_eq_modulo_spans(&ast, &ast2),
            "round-trip changed the AST:\n--- source ---\n{}\n--- pretty ---\n{}",
            text,
            printed
        );
        prop_assert_eq!(pretty(&ast2), printed, "pretty is not idempotent");
    }

    /// Contract 4a: the text-built arithmetic pipeline is
    /// observationally identical to the Rust-built one.
    #[test]
    fn frontend_arith_equals_rust_built(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = shared_engine();
        let text = engine.compile_text(ARITH_TEXT).expect("arith text compiles");
        let rust = engine
            .get_or_compile(&PipelineSpec::arith_lexed())
            .expect("demo arith compiles");
        for input in ["", "1", "(1 + 2) + 34", "((5))", "1 +", ")(", "1 x 2"] {
            assert_pipelines_agree(&text, &rust, input)?;
        }
        for _ in 0..8 {
            let input = random_arith(&mut rng);
            assert_pipelines_agree(&text, &rust, &input)?;
        }
    }

    /// Contract 4b: same for the JSON-subset pipeline.
    #[test]
    fn frontend_json_equals_rust_built(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = shared_engine();
        let text = engine.compile_text(JSON_TEXT).expect("json text compiles");
        let rust = engine
            .get_or_compile(&PipelineSpec::json_lexed())
            .expect("demo json compiles");
        for input in [
            "",
            "true",
            r#"{"a": [1, {"b": null}], "c": "x y"}"#,
            r#"{"open": ["#,
            r#"[,]"#,
            "nul",
        ] {
            assert_pipelines_agree(&text, &rust, input)?;
        }
        for _ in 0..6 {
            let input = random_json(&mut rng, 3);
            assert_pipelines_agree(&text, &rust, &input)?;
        }
    }
}

// ---------------------------------------------------------------------
// 2. Structural cache sharing
// ---------------------------------------------------------------------

#[test]
fn structurally_equal_texts_share_one_cache_entry() {
    let engine = Engine::new();
    let first = engine.compile_text(ARITH_TEXT).expect("compiles");
    assert!(!first.cache_hit);
    // Same structure, different surface: comments, whitespace, rule
    // spacing — even the pretty-printed canonical form.
    let reworded = format!(
        "# the same grammar, reworded\n{}",
        ARITH_TEXT.replace(" ::= ", "  ::=  ")
    );
    let canonical = pretty(&parse_text(ARITH_TEXT).expect("parses"));
    let entries_before = engine.stats().entries;
    for text in [reworded.as_str(), canonical.as_str()] {
        let again = engine.compile_text(text).expect("compiles");
        assert!(again.cache_hit, "structurally equal text missed the cache");
        assert!(
            std::sync::Arc::ptr_eq(&first.pipeline, &again.pipeline),
            "cache hit returned a different pipeline"
        );
    }
    assert_eq!(
        engine.stats().entries,
        entries_before,
        "structurally equal submissions must not add cache entries"
    );
}

// ---------------------------------------------------------------------
// 3. Every elaboration error variant carries an in-bounds span
// ---------------------------------------------------------------------

#[test]
fn every_error_variant_carries_an_inbounds_span() {
    use std::mem::discriminant as tag;
    let cases: Vec<(&str, FrontendErrorKind)> = vec![
        (
            "token = ;",
            FrontendErrorKind::Syntax {
                message: String::new(),
            },
        ),
        (
            "token A = 'a' ;\nS ::= B ;",
            FrontendErrorKind::UndefinedSymbol {
                name: String::new(),
            },
        ),
        (
            "token A = 'a' ;\nstart T ;\nS ::= A ;",
            FrontendErrorKind::UndefinedStart {
                name: String::new(),
            },
        ),
        (
            "token A = 'a' ;\nS ::= A ;\nS ::= A A ;",
            FrontendErrorKind::DuplicateRule {
                name: String::new(),
            },
        ),
        (
            "token A = 'a' ;\ntoken A = 'b' ;\nS ::= A ;",
            FrontendErrorKind::DuplicateToken {
                name: String::new(),
            },
        ),
        (
            "token A = 'a' ;\nstart S ;\nstart S ;\nS ::= A ;",
            FrontendErrorKind::DuplicateStart,
        ),
        (
            "alphabet [ab] ;\nalphabet [cd] ;\ntoken A = 'a' ;\nS ::= A ;",
            FrontendErrorKind::DuplicateAlphabet,
        ),
        (
            "token S = 'a' ;\nS ::= S ;",
            FrontendErrorKind::TokenNonterminalClash {
                name: String::new(),
            },
        ),
        (
            "skip W = ' ' ;\ntoken A = 'a' ;\nS ::= W ;",
            FrontendErrorKind::SkipReferenced {
                name: String::new(),
            },
        ),
        (
            "token A = 'a'* ;\nS ::= A ;",
            FrontendErrorKind::NullableToken {
                name: String::new(),
            },
        ),
        (
            "token A = 'a' ;\nS ::= '' ;",
            FrontendErrorKind::EmptyLiteral,
        ),
        (
            "token A = [] ;\ntoken B = 'b' ;\nS ::= A B ;",
            FrontendErrorKind::EmptyClass,
        ),
        (
            "token A = [z-a] ;\nS ::= A ;",
            FrontendErrorKind::BadClassRange { lo: ' ', hi: ' ' },
        ),
        (
            "token A = '\\d' ;\nS ::= A ;",
            FrontendErrorKind::BadEscape { escape: ' ' },
        ),
        (
            "token A = [^a]+ ;\nS ::= A ;",
            FrontendErrorKind::NegatedClassNeedsAlphabet,
        ),
        (
            "alphabet [^a] ;\ntoken A = 'a' ;\nS ::= A ;",
            FrontendErrorKind::AlphabetNegated,
        ),
        (
            "alphabet [ab] ;\ntoken A = 'c' ;\nS ::= A ;",
            FrontendErrorKind::CharOutsideAlphabet { ch: ' ' },
        ),
        ("skip W = ' ' ;\nS ::= ;", FrontendErrorKind::NoTokenRules),
        ("token A = 'a' ;", FrontendErrorKind::NoRules),
    ];
    for (text, expected) in cases {
        let report = compile_text(text, &Budgets::default())
            .err()
            .unwrap_or_else(|| panic!("{text:?} must be rejected"));
        let FrontendReport::Errors(errors) = report else {
            panic!("{text:?}: expected diagnostics, got {report}");
        };
        let hit = errors
            .iter()
            .find(|e| tag(&e.kind) == tag(&expected))
            .unwrap_or_else(|| panic!("{text:?}: no {expected:?} among {errors:?}"));
        assert!(hit.span.start <= hit.span.end, "{text:?}: reversed span");
        assert!(
            hit.span.end <= text.len(),
            "{text:?}: span {:?} out of bounds",
            hit.span
        );
        assert!(hit.line >= 1 && hit.col >= 1, "{text:?}: bad line/col");
    }
}
