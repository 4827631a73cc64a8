//! grammarc — the grammar-language compiler as a CLI: compile a `.g`
//! spec through the self-hosted frontend ([`Engine::compile_text`])
//! and parse input through the resulting cached pipeline, reporting
//! every outcome as one JSON object per line (machine-readable,
//! deterministic).
//!
//! Usage:
//!
//! ```text
//! cargo run --example grammarc -- path/to/spec.g   # parses stdin
//! cargo run --example grammarc                     # built-in demo
//! ```
//!
//! With a spec path, stdin is read to the end and parsed as one
//! document. With no arguments it runs the embedded JSON preset over a
//! fixed corpus — the mode the test suite smokes.

use std::io::Read;

use lambekd::engine::{Engine, FrontendReport, StrOutcome};
use lambekd::frontend::presets;

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a failed compile as one structured JSON line.
fn report_json(report: &FrontendReport) -> String {
    match report {
        FrontendReport::Errors(errors) => {
            let items: Vec<String> = errors
                .iter()
                .map(|e| {
                    format!(
                        r#"{{"line":{},"col":{},"message":"{}"}}"#,
                        e.line,
                        e.col,
                        json_escape(&e.kind.to_string())
                    )
                })
                .collect();
            format!(
                r#"{{"event":"reject","kind":"diagnostics","errors":[{}]}}"#,
                items.join(",")
            )
        }
        FrontendReport::Conflicts(report) => {
            let sites: Vec<String> = report
                .sites
                .iter()
                .map(|s| {
                    format!(
                        r#"{{"rule":"{}","line":{},"col":{}}}"#,
                        json_escape(&s.rule),
                        s.line,
                        s.col
                    )
                })
                .collect();
            format!(
                r#"{{"event":"reject","kind":"conflicts","count":{},"sites":[{}]}}"#,
                report.report.conflicts.len(),
                sites.join(",")
            )
        }
        FrontendReport::Budget(shed) => format!(
            r#"{{"event":"reject","kind":"budget","detail":"{}"}}"#,
            json_escape(&shed.to_string())
        ),
        FrontendReport::Internal(message) => format!(
            r#"{{"event":"reject","kind":"internal","detail":"{}"}}"#,
            json_escape(message)
        ),
    }
}

/// Compiles `text` on `engine` and, on success, parses each input,
/// printing one JSON line per event. Returns whether the compile
/// succeeded.
fn drive(engine: &Engine, label: &str, text: &str, inputs: &[&str]) -> bool {
    let handle = match engine.compile_text(text) {
        Ok(handle) => handle,
        Err(report) => {
            println!("{}", report_json(&report));
            return false;
        }
    };
    let backend = handle.pipeline.lexed_backend().expect("text pipeline");
    let states = backend
        .cfg_backend()
        .lr()
        .map(|p| p.table().num_states())
        .unwrap_or(0);
    println!(
        r#"{{"event":"compile","spec":"{}","start":"{}","cache_hit":{},"states":{}}}"#,
        json_escape(label),
        json_escape(&handle.start),
        handle.cache_hit,
        states
    );
    for input in inputs {
        match backend.parse_str_tokens(input).expect("certified parse") {
            StrOutcome::Accept { tokens, .. } => {
                let count = tokens.map(|t| t.tokens().len()).unwrap_or(0);
                println!(
                    r#"{{"event":"parse","input":"{}","accept":true,"tokens":{}}}"#,
                    json_escape(input),
                    count
                );
            }
            StrOutcome::RejectLex(e) => println!(
                r#"{{"event":"parse","input":"{}","accept":false,"error":"{}"}}"#,
                json_escape(input),
                json_escape(&e.to_string())
            ),
            StrOutcome::ShedLex(shed) => println!(
                r#"{{"event":"parse","input":"{}","accept":false,"shed":"{}"}}"#,
                json_escape(input),
                json_escape(&shed.to_string())
            ),
            StrOutcome::RejectParse { message, span, .. } => println!(
                r#"{{"event":"parse","input":"{}","accept":false,"at":{},"error":"{}"}}"#,
                json_escape(input),
                span.start,
                json_escape(&message)
            ),
        }
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine = Engine::new();

    if let Some(path) = args.first() {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let mut input = String::new();
        std::io::stdin()
            .read_to_string(&mut input)
            .expect("reading stdin");
        let ok = drive(&engine, path, &text, &[input.as_str()]);
        std::process::exit(if ok { 0 } else { 1 });
    }

    // Demo mode: the JSON preset over a fixed corpus, then a broken
    // spec to show the structured diagnostics path.
    drive(
        &engine,
        "preset:json",
        presets::JSON,
        &[
            r#"{"k": [1, 2.5e3, true], "s": "hi\n"}"#,
            r#"[null, false, {"nested": {}}]"#,
            r#"{"unclosed": ["#,
        ],
    );
    drive(&engine, "broken", "token = ;", &[]);
    println!("grammarc done");
}
