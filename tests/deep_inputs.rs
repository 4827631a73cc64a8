//! Regression suite for inputs whose derivations are as deep as they
//! are long. Through the full JSON preset (`compile_text`), a flat
//! array of 100,000 elements (`Elements` is left-recursive) and 20,000
//! nested arrays used to abort the process with a stack overflow: the
//! LR driver built boxed trees, and dropping them recursed once per
//! level. The served path now carries a flat reduction log, and the
//! paper-level tree it materializes on request builds, walks and drops
//! iteratively.

use lambekd::engine::{Engine, StrOutcome, StrReportOutcome};
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
