//! Engine contract tests: compile-once cache semantics and
//! batch-vs-sequential equivalence.

use std::sync::Arc;

use proptest::prelude::*;

use lambek_core::alphabet::{Alphabet, GString, Symbol};
use lambek_engine::{Engine, PipelineSpec};

#[test]
fn second_get_or_compile_performs_no_recompilation() {
    let engine = Engine::new();
    let spec = PipelineSpec::regex(Alphabet::abc(), "(a*b)|c");

    let first = engine.get_or_compile(&spec).unwrap();
    let stats = engine.stats();
    assert_eq!((stats.hits, stats.misses, stats.compiles), (0, 1, 1));

    let second = engine.get_or_compile(&spec).unwrap();
    let stats = engine.stats();
    assert_eq!((stats.hits, stats.misses, stats.compiles), (1, 1, 1));
    // Not just "a compiled pipeline": the *same* shared artifact.
    assert!(Arc::ptr_eq(&first, &second));

    // A structurally equal spec built independently is the same key.
    let alias = PipelineSpec::regex(Alphabet::from_chars("abc"), "(a*b)|c");
    let third = engine.get_or_compile(&alias).unwrap();
    assert!(Arc::ptr_eq(&first, &third));
    assert_eq!(engine.stats().compiles, 1);
}

#[test]
fn distinct_specs_get_distinct_entries() {
    let engine = Engine::new();
    engine.get_or_compile(&PipelineSpec::dyck(8)).unwrap();
    engine.get_or_compile(&PipelineSpec::dyck(9)).unwrap();
    engine.get_or_compile(&PipelineSpec::expr(6)).unwrap();
    engine
        .get_or_compile(&PipelineSpec::regex(Alphabet::abc(), "a*"))
        .unwrap();
    let stats = engine.stats();
    assert_eq!(stats.entries, 4);
    assert_eq!(stats.compiles, 4);
}

#[test]
fn concurrent_lookups_compile_exactly_once() {
    let engine = Engine::new();
    let spec = PipelineSpec::dyck(16);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| engine.get_or_compile(&spec).unwrap());
        }
    });
    assert_eq!(engine.stats().compiles, 1);
    assert_eq!(engine.stats().entries, 1);
}

#[test]
fn parse_many_reuses_the_cache_across_calls() {
    let engine = Engine::new();
    let spec = PipelineSpec::dyck(12);
    let sigma = Alphabet::parens();
    let inputs: Vec<GString> = ["()", "(())", ")("]
        .iter()
        .map(|s| sigma.parse_str(s).unwrap())
        .collect();
    engine.parse_many(&spec, &inputs, 2).unwrap();
    engine.parse_many(&spec, &inputs, 2).unwrap();
    assert_eq!(engine.stats().compiles, 1);
    assert_eq!(engine.stats().hits, 1);
}

#[test]
fn cfg_specs_share_cache_entries_by_structure() {
    let engine = Engine::new();
    let p = lambek_cfg::dyck::Parens::new();
    let first = engine
        .get_or_compile(&PipelineSpec::cfg("left", lambek_cfg::dyck::dyck_cfg(&p)))
        .unwrap();
    // Same structure, different label, independently built: one compile.
    let second = engine
        .get_or_compile(&PipelineSpec::cfg("right", lambek_cfg::dyck::dyck_cfg(&p)))
        .unwrap();
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(engine.stats().compiles, 1);
    // The truncated Dyck pipeline is a *different* spec family.
    engine.get_or_compile(&PipelineSpec::dyck(8)).unwrap();
    assert_eq!(engine.stats().compiles, 2);
}

#[test]
fn lr_batch_fans_out_and_certifies() {
    let engine = Engine::new();
    let spec = PipelineSpec::dyck_cfg();
    let sigma = Alphabet::parens();
    let inputs: Vec<GString> = ["", "()", ")(", "(())()", "(()", "()()()", "((()))"]
        .iter()
        .map(|s| sigma.parse_str(s).unwrap())
        .collect();
    let reports = engine.parse_many(&spec, &inputs, 4).unwrap();
    assert_eq!(reports.len(), inputs.len());
    let pipeline = engine.get_or_compile(&spec).unwrap();
    assert!(
        pipeline.cfg_backend().unwrap().lr().is_some(),
        "Dyck serves through LR"
    );
    for (w, r) in inputs.iter().zip(&reports) {
        // yield_ok is the engine's re-asserted intrinsic check: the
        // (certified) accepted trees and the ⊤ rejection witnesses both
        // flatten back to the input.
        assert!(r.yield_ok, "{w}");
        assert_eq!(r.outcome.is_accept(), pipeline.accepts(w), "{w}");
    }
    // Workers shared one Arc'd pipeline: exactly one compilation.
    assert_eq!(engine.stats().compiles, 1);
}

#[test]
fn lr_and_verified_dyck_batches_agree() {
    // The same (deterministic) grammar parsed through the LR tables and
    // through the truncated verified Dyck pipeline must accept the same
    // inputs within the truncation bound.
    let engine = Engine::new();
    let sigma = Alphabet::parens();
    let inputs: Vec<GString> = ["", "()", "((", "()()", "(())", "())("]
        .iter()
        .map(|s| sigma.parse_str(s).unwrap())
        .collect();
    let lr = engine
        .parse_many(&PipelineSpec::dyck_cfg(), &inputs, 2)
        .unwrap();
    let verified = engine
        .parse_many(&PipelineSpec::dyck(16), &inputs, 2)
        .unwrap();
    for (l, v) in lr.iter().zip(&verified) {
        assert_eq!(l.outcome.is_accept(), v.outcome.is_accept(), "{}", l.index);
    }
}

fn arb_paren_string(max_len: usize) -> impl Strategy<Value = GString> {
    proptest::collection::vec(0usize..2, 0..=max_len)
        .prop_map(|v| v.into_iter().map(Symbol::from_index).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batch parsing is a pure fan-out: for any workload and any worker
    /// count, the reports equal the sequential ones (modulo timings).
    #[test]
    fn batch_equals_sequential(
        inputs in proptest::collection::vec(arb_paren_string(10), 0..24),
        workers in 1usize..6,
    ) {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck(10);
        let sequential = engine.parse_many(&spec, &inputs, 1).unwrap();
        let parallel = engine.parse_many(&spec, &inputs, workers).unwrap();
        prop_assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            prop_assert_eq!(s.index, p.index);
            prop_assert_eq!(s.input_len, p.input_len);
            prop_assert_eq!(&s.outcome, &p.outcome);
            prop_assert_eq!(s.yield_ok, p.yield_ok);
        }
    }

    /// Batch acceptance agrees with the dense-backend fast path.
    #[test]
    fn batch_outcomes_match_fast_accepts(
        inputs in proptest::collection::vec(arb_paren_string(12), 1..16),
    ) {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck(12);
        let pipeline = engine.get_or_compile(&spec).unwrap();
        let reports = engine.parse_many(&spec, &inputs, 4).unwrap();
        for (w, r) in inputs.iter().zip(&reports) {
            prop_assert_eq!(r.outcome.is_accept(), pipeline.accepts(w));
            prop_assert!(r.yield_ok);
        }
    }
}
