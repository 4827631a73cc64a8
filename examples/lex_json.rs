//! Raw JSON-subset text through the full certified pipeline:
//! characters → tagged-DFA maximal-munch lexer → token string →
//! certified LR parse tree, with rejections pointing at byte offsets of
//! the raw text.
//!
//! Run with `cargo run --example lex_json`.

use lambekd::core::grammar::parse_tree::validate;
use lambekd::engine::{Engine, PipelineSpec, StrOutcome, StrReportOutcome};

fn main() {
    let engine = Engine::new();
    let spec = PipelineSpec::json_lexed();
    let pipeline = engine.get_or_compile(&spec).expect("compiles");
    let backend = pipeline.lexed_backend().expect("lexed pipeline");
    println!(
        "compiled {}: {} lex rules over {} chars → tagged DFA with {} states; \
         token grammar is LALR(1)",
        spec.label(),
        backend.lexer().spec().rules().len(),
        backend.lexer().spec().alphabet().len(),
        backend.lexer().automaton().dfa().num_states(),
    );

    // A batch of raw texts: three valid documents, one with a lexical
    // error, one with a parse error.
    let inputs = [
        "{\"name\": \"ada\", \"age\": 36}",
        "[1, 2, [true, false, null], {\"nested\": []}]",
        "{\"weights\": [70, 80, 90], \"ok\": true}",
        "{\"price\": 12.50}", // '.' is not in the character alphabet
        "{\"a\" 1}",          // missing ':' — rejected at the NUM token
    ];
    let reports = engine
        .parse_many_str(&spec, &inputs, 2)
        .expect("pipeline is cached");
    for (input, report) in inputs.iter().zip(&reports) {
        match &report.outcome {
            StrReportOutcome::Accepted { tree_size, tokens } => {
                println!("  ok      {input}  ({tokens} tokens, tree size {tree_size})");
            }
            StrReportOutcome::RejectedParse { span, message } => {
                println!(
                    "  parse✗  {input}  at {span} ({:?}): {message}",
                    &input[span.start..span.end.min(input.len())],
                );
            }
            StrReportOutcome::RejectedLex { at, message } => {
                println!("  lex✗    {input}  {message} (byte {at})");
            }
            StrReportOutcome::Failed(m) => println!("  failed  {input}  {m}"),
            StrReportOutcome::BudgetExceeded { budget, required } => {
                println!("  shed    {input}  ({required} bytes over the {budget}-byte budget)");
            }
            StrReportOutcome::DeadlineExceeded => println!("  shed    {input}  (deadline passed)"),
            StrReportOutcome::ShedLex(shed) => println!("  shed    {input}  ({shed})"),
        }
    }

    // The accepted trees are certified twice over — re-check the first
    // one by hand: tree vs token string, spans vs raw text. The fused
    // `parse_str` never materializes the stream, so ask the
    // token-materializing variant for it.
    let parsed = backend
        .parse_str_tokens(inputs[0])
        .expect("no contract violation");
    let StrOutcome::Accept { derivation, tokens } = parsed else {
        panic!("input 0 is valid");
    };
    let tokens = tokens.expect("lexed pipeline");
    // The served derivation is the LR run's reduction log; materialize
    // the paper-level tree to validate it from the outside.
    let tree = derivation.to_parse_tree();
    validate(&tree, pipeline.grammar(), tokens.yield_string()).expect("tree certifies");
    backend
        .lexer()
        .certify(inputs[0], tokens.tokens())
        .expect("spans certify");
    println!(
        "re-certified both layers: {} raw bytes → {} tokens → tree yield matches",
        inputs[0].len(),
        tokens.yield_string().len(),
    );

    // Streaming: the same document, one character at a time, with a
    // viability probe per character.
    let mut stream = engine.stream(&spec).expect("LALR token grammar streams");
    let doc = inputs[1];
    for c in doc.chars() {
        assert!(stream.push_char(c), "every prefix of a valid doc is viable");
    }
    let outcome = stream.finish().expect("certified finish");
    println!(
        "lexed JSON stream finished: accepted = {} (pointwise equal to the batch path)",
        outcome.is_accept(),
    );
}
