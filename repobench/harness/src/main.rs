//! `repobench`: the harness binary of the repository benchmark.
//!
//! Every subcommand prints one JSON object on stdout:
//!
//! * `setup --workload W --seed S`: set the workload up once in this
//!   fresh process and report `setup_s`;
//! * `run --workload W --seed S --requests N`: set up, then serve N
//!   closed-loop requests from this one client thread, untraced, and
//!   report latency, throughput, peak RSS and the oracle's verdicts,
//!   with the reference kernel timed before and after;
//! * `trace --workload W --seed S --requests N --spans FILE`: the traced
//!   pass (see `trace.rs`).
//!
//! `../run.py` drives these subcommands and prints the result line.

mod alloc;
mod churn;
mod gen;
mod json;
mod trace;

use std::collections::VecDeque;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lambek_engine::{CacheConfig, Engine, EngineError, PipelineSpec};

use churn::{ChurnGen, ExprGrammar};
use gen::{check_all, Doc};
use json::JsonGen;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JsonFresh,
    GrammarChurn,
    MunchAdversarial,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "json_fresh" => Some(Workload::JsonFresh),
            "grammar_churn" => Some(Workload::GrammarChurn),
            "munch_adversarial" => Some(Workload::MunchAdversarial),
            _ => None,
        }
    }
}

/// `grammar_churn` resubmits the text compiled this many requests earlier.
const RESUBMIT_LAG: usize = 4;
/// `grammar_churn`'s cache bound: each new grammar evicts an older one,
/// while the last few (and the meta pipeline, whose compile cost keeps
/// its eviction credit high) normally stay resident.
const CHURN_CACHE_ENTRIES: usize = 12;

/// A workload, set up and ready to serve.
pub enum Session {
    Json {
        engine: Engine,
        spec: PipelineSpec,
        gen: JsonGen,
    },
    Churn {
        engine: Engine,
        gen: ChurnGen,
        /// The last [`RESUBMIT_LAG`] texts, oldest first.
        recent: VecDeque<String>,
        resubmit_hits: u64,
    },
    Munch {
        engine: Engine,
        spec: PipelineSpec,
        doc: Doc,
    },
}

/// One request's inputs, generated before its clock starts.
pub enum Inputs {
    Docs(Vec<Doc>),
    Churn {
        grammar: ExprGrammar,
        old: String,
        doc: Doc,
    },
}

/// One served request: time spent in the engine and the oracle's verdict.
pub struct Answer {
    pub latency: Duration,
    pub verdict: Result<(), String>,
}

impl Session {
    /// Sets `w` up and answers one warm-up request. The set-up seconds
    /// run from `Engine::new` through the workload's `compile_text` calls
    /// (the first compiles the meta pipeline too) to the warm-up answer,
    /// input generation excluded.
    pub fn setup(w: Workload, seed: u64) -> Result<(Session, f64), String> {
        let compile = |engine: &Engine, text: &str| {
            engine
                .compile_text(text)
                .map(|h| h.spec)
                .map_err(|e| format!("compile_text: {e}"))
        };
        let mut churn = ChurnGen::new(seed);
        let window: Vec<String> = match w {
            Workload::GrammarChurn => (0..RESUBMIT_LAG).map(|_| churn.grammar().text).collect(),
            _ => Vec::new(),
        };
        let t0 = Instant::now();
        let mut session = match w {
            Workload::JsonFresh => {
                let engine = Engine::new();
                let spec = compile(&engine, lambek_frontend::presets::JSON)?;
                Session::Json {
                    engine,
                    spec,
                    gen: JsonGen::new(seed),
                }
            }
            Workload::GrammarChurn => {
                let engine = Engine::with_config(CacheConfig {
                    max_entries: CHURN_CACHE_ENTRIES,
                    max_weight: Duration::from_secs(3600),
                });
                for text in &window {
                    compile(&engine, text)?;
                }
                Session::Churn {
                    engine,
                    gen: churn,
                    recent: window.into(),
                    resubmit_hits: 0,
                }
            }
            Workload::MunchAdversarial => {
                let engine = Engine::new();
                let spec = compile(&engine, churn::MUNCH_GRAMMAR)?;
                Session::Munch {
                    engine,
                    spec,
                    doc: churn::munch_doc(churn::MUNCH_LEN),
                }
            }
        };
        let compiled = t0.elapsed();
        let inputs = session.inputs();
        let warm = session.serve(inputs);
        warm.verdict.map_err(|e| format!("warm-up request: {e}"))?;
        Ok((session, (compiled + warm.latency).as_secs_f64()))
    }

    pub fn engine(&self) -> &Engine {
        match self {
            Session::Json { engine, .. }
            | Session::Churn { engine, .. }
            | Session::Munch { engine, .. } => engine,
        }
    }

    /// Generates the next request's inputs.
    pub fn inputs(&mut self) -> Inputs {
        match self {
            Session::Json { gen, .. } => Inputs::Docs(vec![gen.request_doc(), gen.request_doc()]),
            Session::Churn { gen, recent, .. } => {
                let grammar = gen.grammar();
                let doc = gen.doc(&grammar);
                let old = recent
                    .pop_front()
                    .expect("the set-up fills the resubmission window");
                Inputs::Churn { grammar, old, doc }
            }
            Session::Munch { doc, .. } => Inputs::Docs(vec![doc.clone()]),
        }
    }

    /// Serves one request: the timed calls into the engine, then the
    /// oracle's check of every answer.
    pub fn serve(&mut self, inputs: Inputs) -> Answer {
        match (self, inputs) {
            (Session::Json { engine, spec, .. }, Inputs::Docs(docs)) => {
                serve_docs(engine, spec, &docs, 2)
            }
            (Session::Munch { engine, spec, .. }, Inputs::Docs(docs)) => {
                serve_docs(engine, spec, &docs, 1)
            }
            (
                Session::Churn {
                    engine,
                    recent,
                    resubmit_hits,
                    ..
                },
                Inputs::Churn { grammar, old, doc },
            ) => {
                let t0 = Instant::now();
                let fresh = engine.compile_text(&grammar.text);
                let again = engine.compile_text(&old);
                let answer = match &fresh {
                    Ok(h) => engine.parse_many_str(&h.spec, &[doc.text.as_str()], 1),
                    Err(e) => Err(EngineError::Compile(e.to_string())),
                };
                let latency = t0.elapsed();
                recent.push_back(grammar.text);
                let verdict = match again {
                    Ok(h) => {
                        *resubmit_hits += u64::from(h.cache_hit);
                        check_all(answer, &[&doc])
                    }
                    Err(e) => Err(format!("resubmit: {e}")),
                };
                Answer { latency, verdict }
            }
            _ => unreachable!("inputs come from the session that serves them"),
        }
    }
}

fn serve_docs(engine: &Engine, spec: &PipelineSpec, docs: &[Doc], workers: usize) -> Answer {
    let texts: Vec<&str> = docs.iter().map(|d| d.text.as_str()).collect();
    let t0 = Instant::now();
    let answer = engine.parse_many_str(spec, &texts, workers);
    let latency = t0.elapsed();
    let docs: Vec<&Doc> = docs.iter().collect();
    Answer {
        latency,
        verdict: check_all(answer, &docs),
    }
}

/// Failed requests: all counted, the first few kept and printed.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn note(&mut self, e: String) {
        self.count += 1;
        if self.first.len() < 5 {
            eprintln!("repobench: failed: {e}");
            self.first.push(e);
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// The untraced run.
fn run(w: Workload, seed: u64, requests: usize) -> Result<String, String> {
    let (mut session, setup_s) = Session::setup(w, seed)?;
    let kernel_before = ref_kernel_ms();
    let mut latencies = Vec::with_capacity(requests);
    let mut failures = Failures::default();
    for _ in 0..requests {
        let inputs = session.inputs();
        match catch_unwind(AssertUnwindSafe(|| session.serve(inputs))) {
            Ok(answer) => {
                latencies.push(answer.latency.as_secs_f64() * 1e3);
                if let Err(e) = answer.verdict {
                    failures.note(e);
                }
            }
            Err(p) => failures.note(format!("panic: {}", panic_message(&*p))),
        }
    }
    let kernel_after = ref_kernel_ms();
    let mut o = JsonOut::default();
    o.int("requests", requests as u64);
    o.int("failed", failures.count);
    o.raw("failures", &str_list(&failures.first));
    o.num("setup_s", setup_s);
    let latencies: Vec<String> = latencies.iter().map(f64::to_string).collect();
    o.raw("latencies_ms", &format!("[{}]", latencies.join(",")));
    o.num("peak_rss_mib", peak_rss_mib()?);
    o.num("ref_kernel_before_ms", kernel_before);
    o.num("ref_kernel_after_ms", kernel_after);
    if let Session::Churn {
        engine,
        resubmit_hits,
        ..
    } = &session
    {
        o.int("resubmit_hits", *resubmit_hits);
        o.int("evictions", engine.engine_stats().evictions);
    }
    Ok(o.finish())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

enum Node {
    Leaf(u64),
    Branch(Box<Node>, Box<Node>),
}

fn build(depth: u32, x: u64) -> Node {
    if depth == 0 {
        Node::Leaf(x)
    } else {
        Node::Branch(
            Box::new(build(depth - 1, 2 * x)),
            Box::new(build(depth - 1, 2 * x + 1)),
        )
    }
}

fn sum(n: &Node) -> u64 {
    match n {
        Node::Leaf(x) => *x,
        Node::Branch(l, r) => sum(l).wrapping_add(sum(r)),
    }
}

/// A fixed benchmark-owned kernel (build, walk and drop boxed binary
/// trees, ~100 ms on the reference box). Its time labels slow phases of
/// the machine; it is printed beside each run and never rescales a
/// metric.
fn ref_kernel_ms() -> f64 {
    let t0 = Instant::now();
    for i in 0..2 {
        let tree = build(19, i);
        black_box(sum(black_box(&tree)));
        drop(tree);
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// A flat JSON object writer.
#[derive(Default)]
pub struct JsonOut(String);

impl JsonOut {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        self.0.push_str(&quote(k));
        self.0.push(':');
    }

    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        if v.is_finite() {
            self.0.push_str(&v.to_string());
        } else {
            self.0.push_str("null");
        }
    }

    pub fn int(&mut self, k: &str, v: u64) {
        self.key(k);
        self.0.push_str(&v.to_string());
    }

    pub fn raw(&mut self, k: &str, v: &str) {
        self.key(k);
        self.0.push_str(v);
    }

    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

pub fn quote(s: &str) -> String {
    let mut q = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            '\n' => q.push_str("\\n"),
            c if (c as u32) < 0x20 => q.push_str(&format!("\\u{:04x}", c as u32)),
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

pub fn str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
    format!("[{}]", quoted.join(","))
}

const USAGE: &str = "usage: repobench (setup|run|trace) --workload W --seed S \
                     [--requests N] [--spans FILE]";

fn dispatch(args: &[String]) -> Result<String, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let w = flag("--workload")
        .and_then(Workload::parse)
        .ok_or("missing or unknown --workload")?;
    let seed: u64 = flag("--seed")
        .and_then(|s| s.parse().ok())
        .ok_or("missing or bad --seed")?;
    let requests = || -> Result<usize, String> {
        flag("--requests")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "missing or bad --requests".to_string())
    };
    match args.first().map(String::as_str) {
        Some("setup") => Session::setup(w, seed).map(|(_, setup_s)| {
            let mut o = JsonOut::default();
            o.num("setup_s", setup_s);
            o.finish()
        }),
        Some("run") => run(w, seed, requests()?),
        Some("trace") => trace::run(w, seed, requests()?, flag("--spans").ok_or(USAGE)?),
        _ => Err(USAGE.into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("repobench: {e}");
            std::process::exit(2);
        }
    }
}
