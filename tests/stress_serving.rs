//! Stress suite for the serving tier: many threads hammering one
//! [`Engine`] through the persistent worker pool, with a cache
//! deliberately too small for the working set. The assertions are the
//! serving-tier contract:
//!
//! * no batch loses or duplicates a report, and reports come back in
//!   input order with the intrinsic yield check holding on every
//!   accept;
//! * the cache counters stay algebraically consistent under
//!   concurrency and thrashing (`hits + misses = lookups`,
//!   `compiles = misses`, `entries = compiles − evictions`, occupancy
//!   within the configured bound);
//! * the pool neither drops nor invents work (`submitted = executed`
//!   once drained) and an empty batch never touches it;
//! * admission limits shed oversized / expired requests through the
//!   pooled path as structured outcomes, never as panics;
//! * a damaged session blob is refused by the checksum at the door —
//!   no byte of it reaches a parser;
//! * grammar texts resubmitted byte for byte (answered by the cache's
//!   text map), reworded or never seen keep the same counter algebra,
//!   and every handle parses as a fresh engine's does.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lambekd::core::alphabet::{Alphabet, GString};
use lambekd::engine::{
    CacheConfig, Engine, PipelineSpec, PoolStats, ReportOutcome, RequestLimits, SessionError,
    SessionState, StrReportOutcome,
};

/// A working set of cheap-to-compile pipelines, deliberately larger
/// than the cache capacities used below.
fn working_set() -> Vec<PipelineSpec> {
    vec![
        PipelineSpec::regex(Alphabet::abc(), "(a|b)*c"),
        PipelineSpec::regex(Alphabet::abc(), "a*b"),
        PipelineSpec::dyck(16),
        PipelineSpec::expr(16),
        PipelineSpec::dyck_cfg(),
        PipelineSpec::expr_cfg(),
    ]
}

/// Inputs for each spec in [`working_set`], mixing accepts and rejects.
fn inputs_for(engine: &Engine, spec: &PipelineSpec) -> Vec<GString> {
    let sigma = engine
        .get_or_compile(spec)
        .expect("working-set specs compile")
        .alphabet()
        .clone();
    let texts: &[&str] = if sigma.symbol_of_char('(').is_some() && sigma.len() == 2 {
        &["()", "(())()", ")(", "((()))", "(()", ""]
    } else if sigma.symbol_of_char('a').is_some() {
        &["ab", "aab", "c", "abc", "ba", ""]
    } else {
        // The arith token alphabet: NUM + ( ) — spell NUM as 'n'.
        return ["n+n", "(n+n)+n", "n", "+n", "()", ""]
            .iter()
            .map(|s| {
                s.chars()
                    .map(|c| match c {
                        'n' => sigma.symbol("NUM").expect("arith alphabet"),
                        other => sigma
                            .symbol_of_char(other)
                            .expect("arith operator characters"),
                    })
                    .collect()
            })
            .collect();
    };
    texts
        .iter()
        .map(|s| sigma.parse_str(s).expect("inputs drawn from the alphabet"))
        .collect()
}

#[test]
fn concurrent_batches_lose_nothing_and_counters_balance() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 12;
    // Capacity 2 for a 6-spec working set: every thread keeps forcing
    // evictions and recompilations underneath the others.
    let engine = Engine::with_config(CacheConfig {
        max_entries: 2,
        max_weight: Duration::from_secs(3600),
    });
    let specs = working_set();
    let lookups = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            let engine = &engine;
            let specs = &specs;
            let lookups = &lookups;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let spec = &specs[(tid + round) % specs.len()];
                    // inputs_for compiles once, parse_many looks up once.
                    let inputs = inputs_for(engine, spec);
                    lookups.fetch_add(2, Ordering::Relaxed);
                    let reports = engine
                        .parse_many(spec, &inputs, 4)
                        .expect("cached specs parse");
                    assert_eq!(reports.len(), inputs.len(), "lost or duplicated reports");
                    for (i, r) in reports.iter().enumerate() {
                        assert_eq!(r.index, i, "reports out of order");
                        assert_eq!(r.input_len, inputs[i].len());
                        if r.outcome.is_accept() {
                            assert!(r.yield_ok, "accepted tree failed the yield check");
                        }
                    }
                }
            });
        }
    });
    let cache = engine.stats();
    let stats = engine.engine_stats();
    let lookups = lookups.load(Ordering::Relaxed) as u64;
    assert_eq!(cache.hits + cache.misses, lookups, "lookup accounting");
    assert_eq!(
        cache.compiles, cache.misses,
        "every miss compiles exactly once"
    );
    assert!(
        stats.evictions <= cache.compiles,
        "cannot evict more than was compiled"
    );
    assert_eq!(
        cache.entries as u64,
        cache.compiles - stats.evictions,
        "residency must be compiles minus evictions"
    );
    assert!(cache.entries <= 2, "cache exceeded its entry bound");
    assert!(
        cache.misses > specs.len() as u64,
        "a thrashing cache must recompile evicted specs"
    );
    assert_eq!(
        stats.pool.submitted, stats.pool.executed,
        "pool lost or invented work"
    );
    assert_eq!(
        stats.pool.batches,
        (THREADS * ROUNDS) as u64,
        "each parse_many call is exactly one pooled batch"
    );
    assert!(stats.pool.workers > 0, "the pool was never spun up");
    assert!(
        stats.pool.steals <= stats.pool.executed,
        "a steal is one execution; steals cannot exceed executed work"
    );
    let depths = engine.pool_queue_depths();
    assert_eq!(depths.len(), stats.pool.workers);
    assert!(
        depths.iter().all(|&d| d == 0),
        "drained pool must report empty queues, got {depths:?}"
    );
    // The exporter must stay coherent under the same load: every
    // serving-tier instrument present, and the cache counters in the
    // text identical to the typed snapshot we just checked.
    let text = engine.metrics_text();
    for name in [
        "lambekd_cache_hits_total",
        "lambekd_cache_misses_total",
        "lambekd_pool_submitted_total",
        "lambekd_pool_steals_total",
        "lambekd_pool_queue_depth",
        "lambekd_requests_total",
    ] {
        assert!(text.contains(name), "metrics_text lost instrument {name}");
    }
    assert!(
        text.contains(&format!("lambekd_cache_hits_total {}", cache.hits)),
        "exported hit counter disagrees with the typed snapshot"
    );
}

#[test]
fn empty_batches_never_touch_the_pool() {
    let engine = Engine::new();
    let spec = PipelineSpec::dyck(8);
    let reports = engine.parse_many(&spec, &[], 8).expect("compiles");
    assert!(reports.is_empty());
    let str_spec = PipelineSpec::arith_lexed();
    let str_reports = engine.parse_many_str(&str_spec, &[], 8).expect("compiles");
    assert!(str_reports.is_empty());
    assert_eq!(
        engine.engine_stats().pool,
        PoolStats::default(),
        "an empty batch must not spin up the pool or submit work"
    );
}

#[test]
fn limits_shed_through_the_pooled_path() {
    let engine = Engine::new();
    let spec = PipelineSpec::dyck(64);
    let parens = Alphabet::parens();
    let inputs: Vec<GString> = ["()", "(((((())))))", "()()", "((((((((()))))))))"]
        .iter()
        .map(|s| parens.parse_str(s).unwrap())
        .collect();

    // Token budget: only inputs of ≤ 4 symbols are admitted.
    let budget = RequestLimits {
        token_budget: Some(4),
        deadline: None,
    };
    let reports = engine
        .parse_many_with(&spec, &inputs, 4, budget)
        .expect("compiles");
    for (r, w) in reports.iter().zip(&inputs) {
        if w.len() <= 4 {
            assert!(!r.outcome.is_shed(), "within-budget input was shed");
        } else {
            assert_eq!(
                r.outcome,
                ReportOutcome::BudgetExceeded {
                    budget: 4,
                    required: w.len()
                },
                "over-budget input must shed with the honest sizes"
            );
        }
    }

    // A deadline already in the past sheds the entire batch.
    let expired = RequestLimits {
        token_budget: None,
        deadline: Some(Instant::now() - Duration::from_millis(10)),
    };
    let reports = engine
        .parse_many_with(&spec, &inputs, 4, expired)
        .expect("compiles");
    assert!(
        reports
            .iter()
            .all(|r| r.outcome == ReportOutcome::DeadlineExceeded),
        "every request behind the deadline must shed"
    );

    // Shed requests are still fully accounted for.
    assert_eq!(reports.len(), inputs.len());
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.index, i);
    }
}

#[test]
fn damaged_session_blobs_are_stopped_at_the_checksum() {
    let engine = Engine::new();
    let spec = PipelineSpec::json_lexed();
    let mut stream = engine.stream(&spec).expect("json pipeline streams");
    stream.push_chars("{\"k\": [1, 2, {\"deep\": null}], ");
    let blob = stream.snapshot().expect("live streams park");
    let bytes = blob.as_bytes().to_vec();
    // Every single-bit flip of the whole blob — header, payload and
    // checksum alike — must come back as a structured corruption error
    // from the frame check, not as a panic further down.
    for bit in 0..bytes.len() * 8 {
        let mut bad = bytes.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        match engine.resume(&spec, &SessionState::from_bytes(bad)) {
            Err(SessionError::Corrupt(_)) => {}
            other => panic!(
                "flipping bit {bit} produced {:?} instead of a checksum rejection",
                other.map(|_| "a live stream")
            ),
        }
    }
    // The pristine blob still resumes and finishes certified.
    let mut resumed = engine
        .resume(&spec, &SessionState::from_bytes(bytes))
        .expect("pristine blob resumes");
    resumed.push_chars("\"ok\": true}");
    let outcome = resumed.finish().expect("certified finish");
    assert!(outcome.is_accept(), "the completed document parses");
}

#[test]
fn sessions_survive_concurrent_park_resume_traffic() {
    const THREADS: usize = 6;
    let engine = Engine::with_config(CacheConfig {
        max_entries: 2,
        max_weight: Duration::from_secs(3600),
    });
    let docs = [
        "{\"a\": [1, 2, 3]}",
        "[true, [false, null]]",
        "{\"n\": {\"m\": []}}",
    ];
    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            let engine = &engine;
            scope.spawn(move || {
                let spec = PipelineSpec::json_lexed();
                for (round, doc) in docs.iter().cycle().take(12).enumerate() {
                    let cut = (tid + round) % doc.len();
                    let cut = (cut..=doc.len())
                        .find(|&i| doc.is_char_boundary(i))
                        .expect("len is a boundary");
                    let mut s = engine.stream(&spec).expect("streams");
                    s.push_chars(&doc[..cut]);
                    let blob = s.snapshot().expect("parks");
                    // Meanwhile other threads are evicting and
                    // recompiling this very pipeline under us.
                    let mut r = engine.resume(&spec, &blob).expect("resumes");
                    r.push_chars(&doc[cut..]);
                    let outcome = r.finish().expect("certified finish");
                    assert!(outcome.is_accept(), "{doc:?} parses after park/resume");
                }
            });
        }
    });
    let cache = engine.stats();
    let stats = engine.engine_stats();
    assert_eq!(cache.compiles, cache.misses);
    assert_eq!(cache.entries as u64, cache.compiles - stats.evictions);
}

/// A right-recursive expression grammar over one binary operator.
fn op_grammar(op: &str) -> String {
    format!(
        "token NUM = [0-9]+ ;\nskip WS = ' '+ ;\nE ::= T | T '{op}' E ;\nT ::= NUM | '(' E ')' ;\n"
    )
}

/// `text`'s verdicts on an accepted and a rejected probe document, as
/// a fresh engine serves them.
fn fresh_verdicts(text: &str, probes: &[&str]) -> Vec<StrReportOutcome> {
    let engine = Engine::new();
    let handle = engine.compile_text(text).expect("probe grammars compile");
    engine
        .parse_many_str(&handle.spec, probes, 1)
        .expect("parses")
        .into_iter()
        .map(|r| r.outcome)
        .collect()
}

#[test]
fn text_resubmits_keep_the_counter_algebra_under_contention() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 18;
    const OPS: [&str; 5] = ["+", "-", "*", "/", "^"];
    // Three entries for five shared grammars plus one fresh grammar per
    // thread and round: resident texts keep getting evicted under the
    // threads that resubmit them.
    let engine = Engine::with_config(CacheConfig {
        max_entries: 3,
        max_weight: Duration::from_secs(3600),
    });
    let lookups = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for tid in 0..THREADS {
            let engine = &engine;
            let lookups = &lookups;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let fresh_op = format!("o{tid}x{round}");
                    let op = match round % 3 {
                        2 => fresh_op.as_str(),
                        _ => OPS[(tid + round) % OPS.len()],
                    };
                    let text = match round % 3 {
                        // Reworded: a comment no other submission has.
                        1 => format!("# t{tid} r{round}\n{}", op_grammar(op)),
                        // Byte-identical across threads and rounds, or
                        // never seen.
                        _ => op_grammar(op),
                    };
                    let handle = engine.compile_text(&text).expect("compiles");
                    let accepted = format!("1 {op} (2 {op} 34)");
                    let rejected = format!("1 {op}");
                    let probes = [accepted.as_str(), rejected.as_str()];
                    let reports = engine
                        .parse_many_str(&handle.spec, &probes, 1)
                        .expect("parses");
                    lookups.fetch_add(2, Ordering::Relaxed);
                    let outcomes: Vec<StrReportOutcome> =
                        reports.into_iter().map(|r| r.outcome).collect();
                    assert!(outcomes[0].is_accept() && !outcomes[1].is_accept());
                    assert_eq!(outcomes, fresh_verdicts(&text, &probes), "{text}");
                }
            });
        }
    });
    let cache = engine.stats();
    let stats = engine.engine_stats();
    let lookups = lookups.load(Ordering::Relaxed) as u64;
    assert_eq!(
        cache.hits + cache.misses,
        lookups,
        "text hits count as hits"
    );
    assert_eq!(cache.compiles, cache.misses);
    assert!(stats.evictions <= cache.compiles);
    assert_eq!(cache.entries as u64, cache.compiles - stats.evictions);
    assert!(cache.entries <= 3, "cache exceeded its entry bound");
    assert!(
        cache.hits > 0,
        "shared grammars must be resubmitted resident"
    );
    assert_eq!(cache.hit_latency.count(), cache.hits);
}
