//! Lexing throughput and the point of the lexed pipeline: raw-text
//! parsing as lex + token-level LR versus a char-level CFG fed to
//! Earley.
//!
//! Three groups:
//!
//! * `lex_throughput` — the maximal-munch tagged-DFA driver over
//!   arithmetic text at 1 KiB / 64 KiB / 1 MiB (MB/s is the number to
//!   read off: bytes ÷ time): the raw driver, the incremental certifier
//!   (span tiling as a running cursor, derivative-table walk at each
//!   munch boundary), and the full post-hoc re-validation pass;
//! * `lex_vs_char_earley` — the same raw arithmetic language parsed two
//!   ways: certified lex + certified LR over tokens (the new
//!   subsystem), against Earley over the character-level grammar with
//!   `NUM` expanded to digit productions (recognition only, to be
//!   generous to the baseline — tree extraction would slow it further);
//! * `lex_compile` — spec → tagged DFA construction for the arithmetic
//!   lexer; the full `CertifiedLexer::compile` (tagged DFA plus one
//!   certifier derivative table per rule) for a 6-level generated
//!   expression grammar of the `grammar_churn` shape and for the json.g
//!   preset; and a warm engine cache hit for a lexed spec.

use lambek_bench::bench;
use lambek_cfg::earley::earley_recognize;
use lambek_engine::{Engine, PipelineSpec};
use lambek_lex::demo::{arith_char_cfg, arith_spec, arith_text, arith_token_cfg};
use lambek_lex::{CertifiedLexer, LexAutomaton, LexSpec};
use lambek_lr::CertifiedLrParser;

/// A generated expression grammar of the `grammar_churn` shape: `NUM`,
/// `ID` and whitespace rules, then one precedence level per entry of
/// `levels`, each with its binary operators, over atoms and parentheses.
fn churn_expr(levels: &[&[&str]]) -> String {
    let mut t =
        String::from("token NUM = [0-9]+ ;\ntoken ID = [a-z] [a-z0-9]* ;\nskip WS = [ \\n]+ ;\n");
    for (i, ops) in levels.iter().enumerate() {
        let alts: Vec<String> = ops
            .iter()
            .map(|op| format!("E{i} '{op}' E{}", i + 1))
            .collect();
        t.push_str(&format!("E{i} ::= {} | E{} ;\n", alts.join(" | "), i + 1));
    }
    t.push_str(&format!("E{} ::= NUM | ID | '(' E0 ')' ;\n", levels.len()));
    t
}

/// The lexical spec a grammar text elaborates to.
fn text_spec(text: &str) -> LexSpec {
    let ast = lambek_frontend::parse_text(text).unwrap();
    lambek_frontend::elaborate(text, &ast).unwrap().spec
}

fn main() {
    let auto = LexAutomaton::compile(arith_spec());
    let certified = CertifiedLexer::from_automaton(auto.clone()).unwrap();

    for kib in [1usize, 64, 1024] {
        let text = arith_text(kib * 1024);
        bench(&format!("lex_throughput/raw_driver/{kib}KiB"), || {
            auto.lex_raw(&text).unwrap().len()
        });
        bench(
            &format!("lex_throughput/certified_incremental/{kib}KiB"),
            || certified.lex(&text).unwrap().is_accept(),
        );
        bench(&format!("lex_throughput/certified_full/{kib}KiB"), || {
            certified.lex_full(&text).unwrap().is_accept()
        });
    }

    // The composed raw-text pipeline against the char-level baseline,
    // on the *same* language and the same inputs (no whitespace: the
    // char-level grammar has no skip channel).
    let token_cfg = arith_token_cfg();
    let lr = CertifiedLrParser::compile(&token_cfg).expect("Fig. 15 is LALR(1)");
    let char_cfg = arith_char_cfg();
    let char_alphabet = char_cfg.alphabet().clone();
    for kib in [1usize, 4] {
        let text = arith_text(kib * 1024);
        bench(
            &format!("lex_vs_char_earley/lex_lr_parse_certified/{kib}KiB"),
            || {
                let out = certified.lex(&text).unwrap();
                let tokens = out.tokens().expect("arith text lexes");
                lr.parse(tokens.yield_string()).unwrap().is_accept()
            },
        );
        let w = char_alphabet.parse_str(&text).expect("chars in alphabet");
        bench(
            &format!("lex_vs_char_earley/char_earley_recognize/{kib}KiB"),
            || earley_recognize(&char_cfg, &w),
        );
    }

    bench("lex_compile/spec_to_tagged_dfa", || {
        LexAutomaton::compile(arith_spec()).dfa().num_states()
    });
    let churn = text_spec(&churn_expr(&[
        &["+", "-"],
        &["*", "/", "%"],
        &["<<", ">>"],
        &["==", "!=", "<="],
        &["&&"],
        &["^", "**"],
    ]));
    let json = text_spec(lambek_frontend::presets::JSON);
    for (name, spec) in [("churn_expr", churn), ("json", json)] {
        bench(&format!("lex_compile/{name}"), || {
            CertifiedLexer::compile(spec.clone()).unwrap()
        });
    }
    let engine = Engine::new();
    let spec = PipelineSpec::arith_lexed();
    engine.get_or_compile(&spec).unwrap();
    bench("lex_compile/engine_cached_hit", || {
        engine.get_or_compile(&spec).unwrap()
    });
}
