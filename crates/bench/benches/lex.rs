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
//! * `lex_compile` — spec → tagged DFA construction vs a warm engine
//!   cache hit for the same lexed spec.

use lambek_bench::bench;
use lambek_cfg::earley::earley_recognize;
use lambek_engine::{Engine, PipelineSpec};
use lambek_lex::demo::{arith_char_cfg, arith_spec, arith_text, arith_token_cfg};
use lambek_lex::{CertifiedLexer, LexAutomaton};
use lambek_lr::CertifiedLrParser;

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
    let engine = Engine::new();
    let spec = PipelineSpec::arith_lexed();
    engine.get_or_compile(&spec).unwrap();
    bench("lex_compile/engine_cached_hit", || {
        engine.get_or_compile(&spec).unwrap()
    });
}
