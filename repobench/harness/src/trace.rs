//! The traced pass: the first N requests of a workload, each served as
//! in the untraced run and then followed by calls into every layer's
//! public functions on fresh inputs of the same shape, timed from
//! outside. Spans (name, start, end, parent, request, allocations) are
//! kept in memory and written out when the pass ends; a span's self time
//! is its duration minus the time its child spans cover. Per-layer
//! metrics are medians per request.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lambek_core::alphabet::GString;
use lambek_engine::{Engine, PipelineSpec, StrOutcome};
use lambek_lex::{CertifiedLexer, LexError, RawLexeme};
use lambek_lr::{CertifiedLrParser, LrOutcome};

use crate::alloc::{self, AllocCount};
use crate::churn::{munch_doc, ChurnGen, MUNCH_GRAMMAR, MUNCH_LEN};
use crate::gen::{check_all, Doc, Expect};
use crate::json::JsonGen;
use crate::{quote, str_list, Failures, Inputs, JsonOut, Session, Workload};

/// `munch_adversarial`'s pool pair uses shorter inputs: its parse trees
/// are left-deep chains whose recursive drop must fit a pool worker's
/// default stack.
const POOL_MUNCH_LEN: usize = 1024;
const SCAN_BYTES: &str = "lambekd_lex_scan_bytes_total";
const VERDICTS: &str = "lambekd_certifier_verdict_lookups_total";

struct Span {
    name: &'static str,
    request: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    alloc: AllocCount,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, AllocCount)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
        }
    }

    fn open(&mut self, name: &'static str, request: usize) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().map(|o| o.0),
            start: Duration::ZERO,
            end: Duration::ZERO,
            alloc: AllocCount::default(),
        });
        self.open.push((id, AllocCount::now()));
        self.spans[id].start = self.epoch.elapsed();
    }

    fn close(&mut self) {
        let end = self.epoch.elapsed();
        let now = AllocCount::now();
        let (id, at_open) = self.open.pop().expect("every close matches an open");
        let span = &mut self.spans[id];
        span.end = end;
        span.alloc = now.since(at_open);
    }

    fn timed<R>(&mut self, name: &'static str, request: usize, f: impl FnOnce() -> R) -> R {
        self.open(name, request);
        let r = f();
        self.close();
        r
    }
}

/// Counts gathered outside the spans.
struct Acc {
    failures: Failures,
    /// Per-request work counts (`lex.lexemes`, `lr.tree_nodes`).
    values: BTreeMap<&'static str, Vec<f64>>,
    scan_bytes: u64,
    scanned: u64,
    /// Certifier verdict-cache (hits, misses); `None` once the series is
    /// missing from the engine's metrics.
    verdicts: Option<(u64, u64)>,
    resubmit_misses: u64,
    /// Cache (hits, lookups, evictions) of the requests themselves,
    /// summed over the `e2e` spans; the stage calls' lookups are left out.
    cache: (u64, u64, u64),
}

/// Reads a counter from `Engine::metrics_json` output.
fn series(json: &str, name: &str, label: Option<&str>) -> Option<u64> {
    let rest = &json[json.find(&format!("\"name\":\"{name}\""))?..];
    let mut block = &rest[..rest[1..].find("\"name\":").map_or(rest.len(), |e| e + 1)];
    if let Some(label) = label {
        block = &block[block.find(label)?..];
    }
    let value = &block[block.find("\"value\":")? + 8..];
    value[..value.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

fn verdict_counts(json: &str) -> Option<(u64, u64)> {
    Some((
        series(json, VERDICTS, Some("\"result\":\"hit\""))?,
        series(json, VERDICTS, Some("\"result\":\"miss\""))?,
    ))
}

pub fn run(w: Workload, seed: u64, requests: usize, spans_path: &str) -> Result<String, String> {
    let (mut session, _) = Session::setup(w, seed)?;
    alloc::enable();
    let mut t = Tracer::new();
    let mut acc = Acc {
        failures: Failures::default(),
        values: BTreeMap::new(),
        scan_bytes: 0,
        scanned: 0,
        verdicts: Some((0, 0)),
        resubmit_misses: 0,
        cache: (0, 0, 0),
    };
    let mut stage_docs = StageDocs {
        json: JsonGen::stages(seed),
        churn: ChurnGen::new(!seed),
    };
    for k in 0..requests {
        traced_request(&mut session, k, &mut t, &mut acc, &mut stage_docs);
    }
    for i in 0..3 {
        let spec = lambek_frontend::meta_spec();
        let lexer = t.timed("lex.meta_compile", requests + i, || {
            CertifiedLexer::compile(spec)
        });
        drop(lexer);
    }

    let stages = per_request(&t.spans);
    let ms = |name: &str| stages.get(name).map_or(f64::NAN, |s| median_of(&s.ms));
    let mut m: Vec<(String, f64)> = Vec::new();
    for name in [
        "frontend.meta_parse",
        "frontend.elaborate",
        "frontend.resubmit",
        "lex.compile",
        "lr.table_build",
        "engine.compile",
        "lex.scan",
        "lex.certify",
        "lr.recognize",
        "lr.parse",
        "core.tree_drop",
        "engine.fused_parse",
    ] {
        m.push((format!("{name}_ms"), ms(name)));
    }
    m.push(("lex.meta_compile_s".into(), ms("lex.meta_compile") / 1e3));
    m.push(("e2e.traced_p50_ms".into(), ms("e2e")));
    let (hits, lookups, evictions) = acc.cache;
    m.push((
        "engine.cache_hit_ratio".into(),
        hits as f64 / lookups as f64,
    ));
    m.push(("engine.evictions".into(), evictions as f64));
    let (a, b, c, d, e) = lambek_core::intern::stats();
    m.push(("core.intern_nodes".into(), (a + b + c + d + e) as f64));
    for name in ["lex.lexemes", "lr.tree_nodes"] {
        let v = acc.values.get(name).map_or(f64::NAN, |v| median_of(v));
        m.push((name.into(), v));
    }
    m.push((
        "lex.scan_work_ratio".into(),
        acc.scan_bytes as f64 / acc.scanned as f64,
    ));
    let mut record = Vec::new();
    match acc.verdicts {
        Some((h, miss)) => m.push(("lex.verdict_hit_ratio".into(), h as f64 / (h + miss) as f64)),
        None => record.push(format!(
            "lex.verdict_hit_ratio: absent ({VERDICTS} is gone)"
        )),
    }
    let stage_sum = ms("lex.scan") + ms("lex.certify") + ms("lr.parse") + ms("core.tree_drop");
    let batch_overhead = ms("engine.batch") - ms("engine.fused_parse");
    m.push(("engine.batch_overhead_ms".into(), batch_overhead));
    m.push((
        "engine.stage_sum_ratio".into(),
        stage_sum / ms("engine.fused_parse"),
    ));
    m.push(("pool.speedup_2w".into(), ms("pool.w1") / ms("pool.w2")));
    for name in [
        "frontend.meta_parse",
        "frontend.elaborate",
        "frontend.resubmit",
        "lex.compile",
        "lex.meta_compile",
        "lr.table_build",
        "engine.compile",
        "lex.scan",
        "lex.certify",
        "lr.recognize",
        "lr.parse",
        "engine.fused_parse",
        "engine.batch",
    ] {
        let s = stages.get(name);
        m.push((
            format!("{name}.allocs"),
            s.map_or(f64::NAN, |s| median_of(&s.allocs)),
        ));
        m.push((
            format!("{name}.alloc_kib"),
            s.map_or(f64::NAN, |s| median_of(&s.kib)),
        ));
    }
    m.push((
        "core.tree_drop.frees".into(),
        stages
            .get("core.tree_drop")
            .map_or(f64::NAN, |s| median_of(&s.frees)),
    ));

    record.push(format!(
        "stage split (median ms per document): lex.scan {:.3} + lex.certify {:.3} + lr.parse {:.3} \
         + core.tree_drop {:.3} = {:.3} vs engine.fused_parse {:.3}: engine.stage_sum_ratio {:.3}; \
         lr.recognize {:.3}; engine.batch_overhead {:.3}",
        ms("lex.scan"),
        ms("lex.certify"),
        ms("lr.parse"),
        ms("core.tree_drop"),
        stage_sum,
        ms("engine.fused_parse"),
        stage_sum / ms("engine.fused_parse"),
        ms("lr.recognize"),
        batch_overhead,
    ));
    record.push(format!(
        "cache, requests only: {hits} hits of {lookups} lookups, {evictions} evictions; \
         {} stage resubmits missed the cache",
        acc.resubmit_misses
    ));
    record.push(format!(
        "self time (median ms per span): {}",
        self_times(&t.spans)
    ));
    write_spans(&t.spans, spans_path)?;
    record.push(format!("spans: {} written to {spans_path}", t.spans.len()));

    // Stages run on the client thread while the pool idles, so their
    // allocation counts must repeat exactly for a given seed.
    let mut totals = JsonOut::default();
    for name in [
        "frontend.meta_parse",
        "frontend.elaborate",
        "lex.compile",
        "lr.table_build",
        "engine.compile",
        "lex.scan",
        "lex.certify",
        "lr.recognize",
        "lr.parse",
        "core.tree_drop",
        "engine.fused_parse",
        "engine.batch",
        "pool.w1",
    ] {
        let (allocs, bytes) = t
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(a, b), s| (a + s.alloc.allocs, b + s.alloc.bytes));
        totals.raw(name, &format!("[{allocs},{bytes}]"));
    }

    let mut metrics = JsonOut::default();
    for (name, v) in &m {
        metrics.num(name, *v);
    }
    let mut o = JsonOut::default();
    o.int("attempted", requests as u64);
    o.int("failed", acc.failures.count);
    o.raw("failures", &str_list(&acc.failures.first));
    o.raw("metrics", &metrics.finish());
    o.raw("alloc_totals", &totals.finish());
    o.raw("record", &str_list(&record));
    Ok(o.finish())
}

/// Generators of the stage documents, apart from the request stream so
/// the traced pass serves the same requests as an untraced run.
struct StageDocs {
    json: JsonGen,
    churn: ChurnGen,
}

fn traced_request(
    s: &mut Session,
    k: usize,
    t: &mut Tracer,
    acc: &mut Acc,
    stage_docs: &mut StageDocs,
) {
    let inputs = s.inputs();
    // Every measurement gets documents of its own, fresh like a
    // request's, so none of them finds the verdict cache pre-warmed by
    // another: split, fused, batch, then two pairs for the pool.
    let (text, extra): (String, Vec<Doc>) = match &inputs {
        Inputs::Churn { grammar, .. } => (
            grammar.text.clone(),
            (0..7).map(|_| stage_docs.churn.doc(grammar)).collect(),
        ),
        Inputs::Docs(_) if matches!(s, Session::Json { .. }) => (
            lambek_frontend::presets::JSON.to_owned(),
            (0..7).map(|_| stage_docs.json.clean_doc()).collect(),
        ),
        Inputs::Docs(_) => (
            MUNCH_GRAMMAR.to_owned(),
            [MUNCH_LEN; 3]
                .into_iter()
                .chain([POOL_MUNCH_LEN; 4])
                .map(munch_doc)
                .collect(),
        ),
    };
    t.open("request", k);
    let before = s.engine().engine_stats();
    let answer = t.timed("e2e", k, || s.serve(inputs));
    let after = s.engine().engine_stats();
    acc.cache.0 += after.cache.hits - before.cache.hits;
    acc.cache.1 +=
        (after.cache.hits + after.cache.misses) - (before.cache.hits + before.cache.misses);
    acc.cache.2 += after.evictions - before.evictions;
    if let Err(e) = answer.verdict {
        acc.failures.note(e);
    }
    let engine = s.engine();
    if let Some(spec) = frontend_stages(t, acc, k, engine, &text) {
        doc_stages(t, acc, k, engine, &spec, &extra[..3]);
        for (name, docs, workers) in [("pool.w1", &extra[3..5], 1), ("pool.w2", &extra[5..7], 2)] {
            let texts: Vec<&str> = docs.iter().map(|d| d.text.as_str()).collect();
            let answer = t.timed(name, k, || engine.parse_many_str(&spec, &texts, workers));
            if let Err(e) = check_all(answer, &docs.iter().collect::<Vec<_>>()) {
                acc.failures.note(format!("{name}: {e}"));
            }
        }
    }
    t.close();
}

/// Frontend and compiler layers on the request's grammar text; returns
/// the resident pipeline's spec from the resubmission.
fn frontend_stages(
    t: &mut Tracer,
    acc: &mut Acc,
    k: usize,
    engine: &Engine,
    text: &str,
) -> Option<PipelineSpec> {
    let ast = match t.timed("frontend.meta_parse", k, || {
        lambek_frontend::parse_text(text)
    }) {
        Ok(ast) => ast,
        Err(e) => {
            acc.failures.note(format!("parse_text: {e}"));
            return None;
        }
    };
    let elab = match t.timed("frontend.elaborate", k, || {
        lambek_frontend::elaborate(text, &ast)
    }) {
        Ok(elab) => elab,
        Err(errors) => {
            acc.failures
                .note(format!("elaborate: {} errors", errors.len()));
            return None;
        }
    };
    let spec = elab.spec.clone();
    drop(t.timed("lex.compile", k, || CertifiedLexer::compile(spec)));
    if let Err(report) = t.timed("lr.table_build", k, || {
        CertifiedLrParser::compile(&elab.cfg)
    }) {
        acc.failures.note(format!("LR conflicts: {report:?}"));
    }
    let pipeline = PipelineSpec::lexed_cfg("repobench", elab.spec.clone(), elab.cfg.clone());
    if let Err(e) = t.timed("engine.compile", k, || pipeline.compile()) {
        acc.failures.note(format!("compile: {e}"));
    }
    match t.timed("frontend.resubmit", k, || engine.compile_text(text)) {
        Ok(h) => {
            acc.resubmit_misses += u64::from(!h.cache_hit);
            Some(h.spec)
        }
        Err(e) => {
            acc.failures.note(format!("resubmit: {e}"));
            None
        }
    }
}

/// The text → tree split on three fresh documents: scan, certify, LR
/// recognize, LR parse and tree drop on the first; the fused parse on
/// the second; the one-document batch call on the third.
fn doc_stages(
    t: &mut Tracer,
    acc: &mut Acc,
    k: usize,
    engine: &Engine,
    spec: &PipelineSpec,
    docs: &[Doc],
) {
    let [split, fused, batch] = docs else {
        unreachable!("three documents per split")
    };
    let pipeline = match engine.get_or_compile(spec) {
        Ok(p) => p,
        Err(e) => return acc.failures.note(format!("pipeline: {e}")),
    };
    let Some(backend) = pipeline.lexed_backend() else {
        return acc.failures.note("not a lexed pipeline".into());
    };
    let Some(lr) = backend.cfg_backend().lr() else {
        return acc.failures.note("not an LR pipeline".into());
    };
    let lexer = backend.lexer();
    let text = split.text.as_str();

    let m0 = engine.metrics_json();
    let scanned: Result<Vec<RawLexeme>, LexError> = t.timed("lex.scan", k, || {
        lexer.automaton().raw_lexemes(text).collect()
    });
    let m1 = engine.metrics_json();
    if let (Some(a), Some(b)) = (series(&m0, SCAN_BYTES, None), series(&m1, SCAN_BYTES, None)) {
        acc.scan_bytes += b - a;
        acc.scanned += text.len() as u64;
    }
    let lexemes = match scanned {
        Ok(lexemes) => lexemes,
        Err(e) => return acc.failures.note(format!("scan: {e}")),
    };
    acc.values
        .entry("lex.lexemes")
        .or_default()
        .push(lexemes.len() as f64);
    let certified = t.timed("lex.certify", k, || {
        let mut cert = lexer.certifier();
        lexemes.iter().try_for_each(|l| cert.check_raw(text, l))?;
        cert.finish(text)
    });
    let m2 = engine.metrics_json();
    acc.verdicts = match (acc.verdicts, verdict_counts(&m1), verdict_counts(&m2)) {
        (Some((h, m)), Some((h1, m1)), Some((h2, m2))) => Some((h + h2 - h1, m + m2 - m1)),
        _ => None,
    };
    if let Err(e) = certified {
        return acc.failures.note(format!("certify: {e}"));
    }
    let w: GString = lexemes.iter().filter_map(|l| l.sym).collect();
    if split.expect != (Expect::Accept { tokens: w.len() }) {
        acc.failures.note(format!(
            "yield of {} tokens, expected {:?}",
            w.len(),
            split.expect
        ));
    }
    if !t.timed("lr.recognize", k, || lr.recognizes(&w)) {
        acc.failures.note("lr.recognize rejected".into());
    }
    match t.timed("lr.parse", k, || lr.parse(&w)) {
        Ok(LrOutcome::Accept(tree)) => {
            acc.values
                .entry("lr.tree_nodes")
                .or_default()
                .push(tree.size() as f64);
            t.timed("core.tree_drop", k, || drop(tree));
        }
        Ok(LrOutcome::Reject(r)) => acc.failures.note(format!("lr.parse: {r}")),
        Err(e) => acc.failures.note(format!("lr.parse: {e}")),
    }
    let accepted = t.timed("engine.fused_parse", k, || {
        matches!(
            backend.parse_str(&fused.text),
            Ok(StrOutcome::Accept { .. })
        )
    });
    if !accepted {
        acc.failures.note("fused parse did not accept".into());
    }
    let answer = t.timed("engine.batch", k, || {
        engine.parse_many_str(spec, &[batch.text.as_str()], 1)
    });
    if let Err(e) = check_all(answer, &[batch]) {
        acc.failures.note(format!("engine.batch: {e}"));
    }
}

/// Median (NaN when empty).
fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One stage's per-request totals.
#[derive(Default)]
struct Stage {
    ms: Vec<f64>,
    allocs: Vec<f64>,
    kib: Vec<f64>,
    frees: Vec<f64>,
}

fn per_request(spans: &[Span]) -> BTreeMap<&'static str, Stage> {
    let mut sums: BTreeMap<(&'static str, usize), (Duration, AllocCount)> = BTreeMap::new();
    for s in spans {
        let e = sums.entry((s.name, s.request)).or_default();
        e.0 += s.end - s.start;
        e.1.allocs += s.alloc.allocs;
        e.1.bytes += s.alloc.bytes;
        e.1.frees += s.alloc.frees;
    }
    let mut out: BTreeMap<&'static str, Stage> = BTreeMap::new();
    for ((name, _), (d, a)) in sums {
        let stage = out.entry(name).or_default();
        stage.ms.push(d.as_secs_f64() * 1e3);
        stage.allocs.push(a.allocs as f64);
        stage.kib.push(a.bytes as f64 / 1024.0);
        stage.frees.push(a.frees as f64);
    }
    out
}

fn self_durations(spans: &[Span]) -> Vec<Duration> {
    let mut own: Vec<Duration> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

fn self_times(spans: &[Span]) -> String {
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_durations(spans)) {
        by.entry(s.name).or_default().push(own.as_secs_f64() * 1e3);
    }
    by.iter()
        .map(|(name, v)| format!("{name} {:.3}", median_of(v)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn write_spans(spans: &[Span], path: &str) -> Result<(), String> {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_durations(spans)) {
        let mut o = JsonOut::default();
        o.raw("name", &quote(s.name));
        o.int("request", s.request as u64);
        o.raw("parent", &s.parent.map_or("null".into(), |p| p.to_string()));
        o.int("start_ns", s.start.as_nanos() as u64);
        o.int("end_ns", s.end.as_nanos() as u64);
        o.int("self_ns", own.as_nanos() as u64);
        o.int("allocs", s.alloc.allocs);
        o.int("alloc_bytes", s.alloc.bytes);
        o.int("frees", s.alloc.frees);
        out.push_str(&o.finish());
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))
}
