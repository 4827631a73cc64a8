//! Grammar-frontend corpus numbers, emitted as machine-readable JSON
//! (`BENCH_frontend.json` at the repo root), one row per shipped preset
//! (`lambek_frontend::presets`):
//!
//! * `text_compile_s` — the full cold cost of a text submission,
//!   [`Engine::compile_text`] on a fresh engine: self-hosted meta parse,
//!   elaboration, the certified lexer compile (DFA plus certifier
//!   tables), the LALR table build, and the engine's construction and
//!   drop;
//! * `engine_resubmit_s` — what a *repeat* submission of the same text
//!   pays through [`Engine::compile_text`]: the cache's text map
//!   answers it from one hash of the bytes, with no meta parse,
//!   elaboration or compile, after the budget checks;
//! * parse throughput of the compiled pipeline over a corpus document
//!   in the preset's own format.

use lambek_bench::{row, run_sections, time};
use lambek_engine::Engine;
use lambek_frontend::presets;

/// A row tagged with the preset it measures.
fn preset_row(name: &str, pairs: &[(&str, f64)]) -> String {
    row(pairs).replacen("{ ", &format!("{{ \"preset\": \"{name}\", "), 1)
}

/// A corpus document in each preset's own format, sized to make parse
/// throughput a steady-state number rather than a startup one.
fn corpus_doc(name: &str) -> String {
    match name {
        "json" => {
            let item = r#"{"id": 17, "name": "widget", "tags": ["a", "b"], "price": 2.5e1, "ok": true, "note": null}"#;
            let items: Vec<&str> = (0..64).map(|_| item).collect();
            format!("[{}]", items.join(", "))
        }
        "csv" => {
            let mut doc = String::from("id,name,comment");
            for _ in 0..128 {
                doc.push_str("\n17,widget,\"he said \"\"hi\"\", twice\"");
            }
            doc
        }
        "ini" => {
            let mut doc = String::new();
            for _ in 0..64 {
                doc.push_str("[core]\nname = lambekd\nversion = \"0.1\"\n; a comment line\n");
            }
            doc
        }
        "http" => "GET /index.html?q=1&r=2 HTTP/1.1\r\n".repeat(128),
        "clf" => {
            "127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] \"GET /a.gif HTTP/1.0\" 200 2326\n"
                .repeat(64)
        }
        other => panic!("no corpus for preset {other}"),
    }
}

fn compile_section() -> Vec<String> {
    let engine = Engine::new();
    let mut rows = Vec::new();
    for (name, text) in presets::all() {
        // Cold: the whole frontend stack on an empty cache.
        let cold = time(|| {
            Engine::new()
                .compile_text(text)
                .expect("preset compiles")
                .cache_hit
        });
        // Resubmission: meta parse + elaboration, pipeline from the cache.
        engine.compile_text(text).expect("preset compiles");
        let resubmit = time(|| engine.compile_text(text).expect("cached").cache_hit);
        eprintln!(
            "{name:>5}: cold {cold:.3e}s  resubmit {resubmit:.3e}s ({:.1}x)",
            cold / resubmit
        );
        rows.push(preset_row(
            name,
            &[
                ("spec_bytes", text.len() as f64),
                ("text_compile_s", cold),
                ("engine_resubmit_s", resubmit),
                ("cold_over_resubmit", cold / resubmit),
            ],
        ));
    }
    rows
}

fn parse_section() -> Vec<String> {
    let engine = Engine::new();
    let mut rows = Vec::new();
    for (name, text) in presets::all() {
        let handle = engine.compile_text(text).expect("preset compiles");
        let doc = corpus_doc(name);
        let backend = handle.pipeline.lexed_backend().expect("text pipeline");
        assert!(
            backend
                .parse_str(&doc)
                .expect("certified parse")
                .is_accept(),
            "preset {name} rejects its own corpus document"
        );
        let parse = time(|| {
            backend
                .parse_str(&doc)
                .expect("certified parse")
                .is_accept()
        });
        let bytes = doc.len() as f64;
        eprintln!(
            "{name:>5}: parse {parse:.3e}s over {} B ({:.1} MiB/s)",
            doc.len(),
            bytes / parse / (1024.0 * 1024.0),
        );
        rows.push(preset_row(
            name,
            &[
                ("doc_bytes", bytes),
                ("parse_s", parse),
                ("bytes_per_s", bytes / parse),
            ],
        ));
    }
    rows
}

fn main() {
    run_sections(
        "frontend",
        &[("compile", compile_section), ("parse", parse_section)],
    );
}
