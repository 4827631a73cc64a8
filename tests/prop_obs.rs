//! Property suite for the observability layer. The contract under
//! test is that observation is *exact* and *invisible*:
//!
//! * counter algebra — under concurrent batches the engine's request
//!   and token counters equal the sums computed from the reports
//!   themselves (nothing double-counted, nothing dropped);
//! * tracing honesty — every retained trace's stage spans are
//!   disjoint, in chronological order, sum to at most the recorded
//!   wall time, and name the stages the serving path actually ran
//!   (queue/cache/scan/certify/parse for a lexed pipeline);
//! * ring discipline — the trace ring never holds more than its
//!   capacity and always the *newest* traces, newest first;
//! * observational invisibility — an engine built with tracing on
//!   produces byte-identical outcomes (spans, messages, token counts)
//!   to an untraced engine on every input, because the staged traced
//!   path and the fused path are the same algorithm;
//! * exporter fidelity — the Prometheus text parses line-by-line and
//!   agrees with the typed counters; the JSON snapshot is
//!   well-balanced, stable across idle gathers, and round-trips the
//!   counter values.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lambekd::engine::{CacheConfig, Engine, ObsConfig, PipelineSpec, StrReportOutcome};
use lambekd::obs::Stage;
use std::time::Duration;

/// Reads the value of an unlabeled counter/gauge sample from a
/// Prometheus text exposition.
fn prom_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric {name} not exported"))
        .parse()
        .unwrap_or_else(|e| panic!("metric {name} is not an integer: {e}"))
}

/// Random raw arithmetic text mixing accepts, parse rejections, lex
/// rejections ('x' is outside the lexer's alphabet) and empties.
fn random_arith_text(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.gen_range(0..12) {
        match rng.gen_range(0..8) {
            0 => text.push('('),
            1 => text.push(')'),
            2 => text.push('+'),
            3 => text.push(' '),
            4 => text.push('x'),
            _ => {
                for _ in 0..rng.gen_range(1..4) {
                    text.push(char::from(b'0' + rng.gen_range(0u8..10)));
                }
            }
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counter algebra: under concurrent traced batches, the engine's
    /// `requests` counter equals the number of reports handed back and
    /// the `tokens` counter equals the sum of accepted token counts
    /// from those same reports.
    #[test]
    fn counters_are_exact_sums_under_concurrent_batches(seed in 0u64..200) {
        const THREADS: usize = 4;
        let engine = Engine::with_obs(
            CacheConfig::default(),
            ObsConfig { tracing: true, trace_ring: 64 },
        );
        let spec = PipelineSpec::arith_lexed();
        let mut batches: Vec<Vec<String>> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..THREADS {
            batches.push((0..rng.gen_range(1..6)).map(|_| random_arith_text(&mut rng)).collect());
        }
        let (mut requests, mut tokens) = (0u64, 0u64);
        std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .iter()
                .enumerate()
                .map(|(tid, batch)| {
                    let engine = &engine;
                    let spec = &spec;
                    scope.spawn(move || {
                        let inputs: Vec<&str> = batch.iter().map(String::as_str).collect();
                        // Odd threads go through the pool, even ones
                        // stay on the sequential path.
                        let workers = if tid % 2 == 0 { 1 } else { 3 };
                        engine.parse_many_str(spec, &inputs, workers).expect("compiles")
                    })
                })
                .collect();
            for h in handles {
                for r in h.join().expect("no worker panics") {
                    requests += 1;
                    if let StrReportOutcome::Accepted { tokens: t, .. } = r.outcome {
                        tokens += t as u64;
                    }
                }
            }
        });
        let text = engine.metrics_text();
        prop_assert_eq!(prom_value(&text, "lambekd_requests_total"), requests);
        prop_assert_eq!(prom_value(&text, "lambekd_tokens_total"), tokens);
        // Every request was traced, and the ring saw exactly that many.
        prop_assert_eq!(prom_value(&text, "lambekd_traces_total"), requests);
    }

    /// Tracing honesty: spans are chronological, disjoint, sum to at
    /// most the trace's wall total, and name the stages a lexed
    /// pipeline actually runs.
    #[test]
    fn trace_spans_are_disjoint_named_and_bounded_by_wall_time(seed in 0u64..200) {
        let engine = Engine::with_obs(
            CacheConfig::default(),
            ObsConfig { tracing: true, trace_ring: 32 },
        );
        let spec = PipelineSpec::arith_lexed();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5);
        let batch: Vec<String> = (0..rng.gen_range(1..8)).map(|_| random_arith_text(&mut rng)).collect();
        let inputs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let reports = engine.parse_many_str(&spec, &inputs, 1).expect("compiles");
        for r in &reports {
            let trace = r.trace.as_ref().expect("tracing engines attach traces");
            prop_assert_eq!(trace.request, r.index);
            prop_assert_eq!(trace.input_bytes, r.input_bytes);
            prop_assert!(trace.spans_total() <= trace.total,
                "span durations overran the wall total in {trace}");
            let mut clock = Duration::ZERO;
            for s in &trace.spans {
                prop_assert!(s.start >= clock,
                    "span {} starts inside its predecessor in {trace}", s.stage);
                clock = s.start + s.duration;
            }
            // The stages the serving path actually ran, by outcome.
            for stage in [Stage::Cache, Stage::Queue, Stage::Scan] {
                prop_assert!(trace.span_duration(stage).is_some(),
                    "missing {stage} span in {trace}");
            }
            match &r.outcome {
                StrReportOutcome::Accepted { .. } | StrReportOutcome::RejectedParse { .. } => {
                    for stage in [Stage::Certify, Stage::Parse, Stage::Finish] {
                        prop_assert!(trace.span_duration(stage).is_some(),
                            "missing {stage} span in {trace}");
                    }
                }
                // A lex rejection dies in the scan; no parse ran.
                StrReportOutcome::RejectedLex { .. } => {
                    prop_assert!(trace.span_duration(Stage::Parse).is_none(),
                        "a lex-rejected request cannot have parsed, yet {trace}");
                }
                other => prop_assert!(false, "unlimited batch shed or failed: {other:?}"),
            }
        }
        // All reports retained (batch smaller than the ring), newest
        // first: the ring's head is the last-finished request.
        let recent = engine.recent_traces();
        prop_assert_eq!(recent.len(), reports.len());
        prop_assert_eq!(recent[0].request, reports.len() - 1);
    }

    /// Observational invisibility: the staged traced path produces the
    /// same outcome as the fused path run on the *same* compiled
    /// pipeline (same instance, so even LR state numbers in rejection
    /// messages must agree — state numbering is only stable within one
    /// compilation).
    #[test]
    fn traced_reports_agree_with_the_fused_path(seed in 0u64..300) {
        let engine = Engine::with_obs(
            CacheConfig::default(),
            ObsConfig { tracing: true, trace_ring: 16 },
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let batch: Vec<String> = (0..rng.gen_range(1..8)).map(|_| random_arith_text(&mut rng)).collect();
        let inputs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let spec = PipelineSpec::arith_lexed();
        let reports = engine.parse_many_str(&spec, &inputs, 1).expect("compiles");
        let pipeline = engine.get_or_compile(&spec).expect("cached");
        prop_assert_eq!(reports.len(), inputs.len());
        for r in &reports {
            prop_assert!(r.trace.is_some(), "tracing engines attach traces");
            let input = inputs[r.index];
            let fused = pipeline.parse_str(input).expect("no contract violations");
            match (&r.outcome, &fused) {
                (
                    StrReportOutcome::Accepted { tree_size, tokens },
                    lambekd::engine::StrOutcome::Accept { derivation, .. },
                ) => {
                    let tree = derivation.to_parse_tree();
                    prop_assert_eq!(*tree_size, tree.size(), "tree sizes differ on {:?}", input);
                    prop_assert_eq!(*tokens, tree.flatten().len(),
                        "token counts differ on {:?}", input);
                }
                (
                    StrReportOutcome::RejectedParse { span, message },
                    lambekd::engine::StrOutcome::RejectParse { span: fs, message: fm, .. },
                ) => {
                    prop_assert_eq!(span, fs, "rejection spans differ on {:?}", input);
                    prop_assert_eq!(message, fm, "rejection messages differ on {:?}", input);
                }
                (
                    StrReportOutcome::RejectedLex { at, message },
                    lambekd::engine::StrOutcome::RejectLex(e),
                ) => {
                    prop_assert_eq!(*at, e.at, "lex offsets differ on {:?}", input);
                    prop_assert_eq!(message, &e.to_string(),
                        "lex messages differ on {:?}", input);
                }
                (got, want) => prop_assert!(false,
                    "verdicts differ on {:?}: traced {:?}, fused {:?}", input, got, want),
            }
        }
    }
}

#[test]
fn trace_ring_is_bounded_and_keeps_the_newest() {
    let engine = Engine::with_obs(
        CacheConfig::default(),
        ObsConfig {
            tracing: true,
            trace_ring: 4,
        },
    );
    let spec = PipelineSpec::arith_lexed();
    // Ten one-request batches with distinguishable input sizes.
    let docs: Vec<String> = (0..10).map(|i| "1".repeat(i + 1)).collect();
    for d in &docs {
        engine
            .parse_many_str(&spec, &[d.as_str()], 1)
            .expect("compiles");
    }
    let recent = engine.recent_traces();
    assert_eq!(recent.len(), 4, "ring exceeded its capacity");
    let sizes: Vec<usize> = recent.iter().map(|t| t.input_bytes).collect();
    assert_eq!(
        sizes,
        vec![10, 9, 8, 7],
        "ring must hold the newest, newest first"
    );
    assert_eq!(
        prom_value(&engine.metrics_text(), "lambekd_traces_total"),
        10,
        "the pushed counter keeps counting past the capacity"
    );
    // Tracing off: no traces retained, no trace attached.
    let off = Engine::new();
    let reports = off
        .parse_many_str(&spec, &[docs[0].as_str()], 1)
        .expect("compiles");
    assert!(reports[0].trace.is_none());
    assert!(off.recent_traces().is_empty());
}

#[test]
fn stream_progress_reports_all_three_modes() {
    let engine = Engine::new();

    // DFA mode: symbols pushed, no lexer, no LR stack.
    let dfa_spec = PipelineSpec::regex(lambekd::core::alphabet::Alphabet::abc(), "(a|b)*c");
    let sigma = engine
        .get_or_compile(&dfa_spec)
        .expect("compiles")
        .alphabet()
        .clone();
    let mut dfa = engine.stream(&dfa_spec).expect("regex pipelines stream");
    assert_eq!(dfa.progress(), lambekd::engine::StreamProgress::default());
    for sym in sigma.parse_str("abab").expect("in the alphabet").iter() {
        dfa.push(sym);
    }
    let p = dfa.progress();
    assert_eq!((p.pushed, p.tokens_emitted, p.stack_depth), (4, 0, 0));

    // LR mode: symbols pushed and a live stack depth.
    let lr_spec = PipelineSpec::dyck_cfg();
    let parens = engine
        .get_or_compile(&lr_spec)
        .expect("compiles")
        .alphabet()
        .clone();
    let mut lr = engine.stream(&lr_spec).expect("LR pipelines stream");
    for sym in parens.parse_str("((").expect("in the alphabet").iter() {
        lr.push(sym);
    }
    let p = lr.progress();
    assert_eq!(p.pushed, 2);
    assert_eq!(p.tokens_emitted, 0);
    assert!(p.stack_depth > 0, "two open parens leave structure open");

    // Lexed mode: raw bytes pushed, resolved tokens counted, LR depth.
    let mut lexed = engine
        .stream(&PipelineSpec::arith_lexed())
        .expect("lexed pipelines stream");
    lexed.push_chars("12+34");
    let p = lexed.progress();
    assert_eq!(p.pushed, 5, "lexed streams count raw bytes");
    assert_eq!(
        p.tokens_emitted, 2,
        "'12' and '+' have resolved boundaries; '34' is still buffered"
    );
    assert!(p.stack_depth > 0, "a dangling '+' leaves the parse open");
    // progress() is mode-total; trace() stays DFA-only.
    assert!(lexed.trace().is_none());
    assert!(dfa.trace().is_some());
}

#[test]
fn exporters_parse_back_and_stay_stable() {
    let engine = Engine::with_obs(
        CacheConfig::default(),
        ObsConfig {
            tracing: true,
            trace_ring: 8,
        },
    );
    let spec = PipelineSpec::arith_lexed();
    // One miss + one hit, three requests total.
    engine
        .parse_many_str(&spec, &["1+2", "x"], 1)
        .expect("compiles");
    engine
        .parse_many_str(&spec, &["(3+4)+5"], 1)
        .expect("cached");

    let text = engine.metrics_text();
    // Exposition-format shape: every non-comment line is `name[{labels}] value`.
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "stray comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample lines have a value");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable value in line: {line}"
        );
        let name_end = series.find('{').unwrap_or(series.len());
        assert!(
            series[..name_end]
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "invalid metric name in line: {line}"
        );
    }
    // Typed counters and the text agree.
    let stats = engine.stats();
    assert_eq!(prom_value(&text, "lambekd_cache_hits_total"), stats.hits);
    assert_eq!(
        prom_value(&text, "lambekd_cache_misses_total"),
        stats.misses
    );
    assert_eq!(prom_value(&text, "lambekd_requests_total"), 3);
    // Every `# TYPE` family actually emits at least one sample.
    for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        let name = line.split(' ').nth(2).expect("TYPE lines name a metric");
        assert!(
            text.lines().any(|l| {
                l.strip_prefix(name)
                    .is_some_and(|r| r.starts_with(' ') || r.starts_with('{'))
                    || l.strip_prefix(&format!("{name}_bucket")).is_some()
            }),
            "family {name} declared but never sampled"
        );
    }

    // JSON: balanced, counter values round-trip, stable while idle.
    let json = engine.metrics_json();
    let mut depth = 0i64;
    let mut in_str = false;
    let mut esc = false;
    for c in json.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced JSON snapshot");
    }
    assert_eq!(depth, 0, "unbalanced JSON snapshot");
    assert!(!in_str, "unterminated string in JSON snapshot");
    for (name, want) in [
        ("lambekd_cache_hits_total", stats.hits),
        ("lambekd_requests_total", 3),
    ] {
        let needle = format!("\"name\":\"{name}\"");
        let at = json.find(&needle).expect("counter present in JSON");
        let tail = &json[at..];
        let v = tail
            .find("\"value\":")
            .map(|i| &tail[i + 8..])
            .and_then(|t| t.split(&['}', ','][..]).next())
            .expect("counter sample has a value");
        assert_eq!(v.parse::<u64>().ok(), Some(want), "{name} JSON value");
    }
    assert_eq!(
        engine.metrics_json(),
        json,
        "idle gathers must be byte-identical"
    );
}
