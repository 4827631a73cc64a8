//! Regression suite for inputs whose derivations are as deep as they
//! are long. Through the full JSON preset (`compile_text`), a flat
//! array of 100,000 elements (`Elements` is left-recursive) and 20,000
//! nested arrays used to abort the process with a stack overflow: the
//! LR driver built boxed trees, and dropping them recursed once per
//! level. The served path now carries a flat reduction log, and the
//! paper-level tree it materializes on request builds, walks and drops
//! iteratively. Stream sessions parked inside such documents resume on
//! a small stack too: a session blob is the parked raw text and nothing
//! else, and resume pushes it into a fresh stream through the certified
//! drivers.

use lambekd::engine::{Engine, StrOutcome, StrReportOutcome, StreamParser};
use lambekd::frontend::presets;

/// `[0,0,…,0]` with `n` elements: `2n + 1` tokens.
fn flat_array(n: usize) -> (String, usize) {
    let mut s = String::with_capacity(2 * n + 1);
    s.push('[');
    for i in 0..n {
        if i > 0 {
            s.push(',');
        }
        s.push('0');
    }
    s.push(']');
    (s, 2 * n + 1)
}

/// `[`×`n` followed by `]`×`n`: `2n` tokens.
fn nested_arrays(n: usize) -> (String, usize) {
    ("[".repeat(n) + &"]".repeat(n), 2 * n)
}

fn deep_inputs() -> [(String, usize); 2] {
    [flat_array(100_000), nested_arrays(20_000)]
}

#[test]
fn deep_documents_accept_on_pool_workers() {
    let engine = Engine::new();
    let json = engine
        .compile_text(presets::JSON)
        .expect("the JSON preset compiles");
    let inputs = deep_inputs();
    let texts: Vec<&str> = inputs.iter().map(|(s, _)| s.as_str()).collect();
    let reports = engine
        .parse_many_str(&json.spec, &texts, 2)
        .expect("cached pipeline");
    for (report, (_, tokens)) in reports.iter().zip(&inputs) {
        match &report.outcome {
            StrReportOutcome::Accepted { tokens: got, .. } => assert_eq!(got, tokens),
            other => panic!("input {} must accept, got {other:?}", report.index),
        }
    }
}

#[test]
fn deep_trees_materialize_and_drop_on_a_small_stack() {
    let engine = Engine::new();
    let json = engine
        .compile_text(presets::JSON)
        .expect("the JSON preset compiles");
    let pipeline = json.pipeline;
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            for (text, tokens) in deep_inputs() {
                let outcome = pipeline.parse_str(&text).expect("no contract violation");
                let StrOutcome::Accept { derivation, .. } = outcome else {
                    panic!("a deep document must accept: {outcome:?}");
                };
                let tree = derivation.to_parse_tree();
                assert_eq!(tree.size(), derivation.size());
                assert_eq!(tree.flatten().len(), tokens);
                drop(tree);
            }
        })
        .unwrap()
        .join()
        .expect("no stack overflow on a 256 KiB stack");
}

#[test]
fn deep_sessions_resume_on_a_small_stack() {
    let engine = Engine::new();
    let json = engine
        .compile_text(presets::JSON)
        .expect("the JSON preset compiles");
    let (flat, flat_tokens) = flat_array(50_000);
    let (nested, nested_tokens) = nested_arrays(20_000);
    // Each session is parked before its closing brackets.
    let flat_cut = flat.len() - 1;
    let cuts = [
        (flat, flat_cut, flat_tokens),
        (nested, 20_000, nested_tokens),
    ];
    let sessions: Vec<_> = cuts
        .into_iter()
        .map(|(text, cut, tokens)| {
            let mut stream = engine.stream(&json.spec).expect("JSON streams");
            assert!(stream.push_chars(&text[..cut]), "a viable prefix");
            let blob = stream.snapshot().expect("an unfaulted stream parks");
            // The raw text plus a 31-byte envelope (header, length,
            // checksum).
            assert!(blob.len() <= cut + 31, "{} bytes for {cut}", blob.len());
            (blob, text[cut..].to_owned(), tokens)
        })
        .collect();
    let pipeline = json.pipeline;
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            for (blob, rest, tokens) in sessions {
                let mut resumed =
                    StreamParser::resume(pipeline.clone(), &blob).expect("an honest blob resumes");
                assert!(resumed.push_chars(&rest));
                let outcome = resumed.finish().expect("certified finish");
                let tree = outcome.accepted().expect("the document accepts");
                assert_eq!(tree.flatten().len(), tokens);
            }
        })
        .unwrap()
        .join()
        .expect("no stack overflow on a 256 KiB stack");
}
