//! # lambek-engine — the compiled-parser serving layer
//!
//! The verified pipelines of this workspace (Corollary 4.12's regex
//! parser, Theorem 4.13's Dyck parser, Theorem 4.14's expression parser)
//! are *constructions*: every call rebuilds Thompson NFAs, determinizes,
//! and composes equivalences. That is the right shape for reproducing the
//! paper, and the wrong shape for serving traffic. This crate turns the
//! one-shot constructions into a reusable engine:
//!
//! * [`Engine`] — a thread-safe cache of compiled pipelines keyed by
//!   [`PipelineSpec`] (alphabet + grammar), so each pipeline is compiled
//!   once and shared (`Arc`) across requests and threads; specs compare
//!   and hash by an interned id-based [`SpecKey`] (computed once at
//!   construction via [`lambek_core::intern`]), so cache lookups never
//!   deep-compare alphabets or patterns;
//! * [`Engine::parse_many`] — batch parsing sharded over the engine's
//!   persistent work-stealing worker pool, returning one structured
//!   [`ParseReport`] per input (outcome, intrinsic yield check, timing);
//! * [`StreamParser`] — push-style incremental input for DFA-backed and
//!   LR-backed pipelines: each pushed symbol is one dense-table
//!   transition (or one LR shift plus its pending reductions), and
//!   [`StreamParser::finish`] produces the fully verified parse;
//! * [`PipelineSpec::cfg`] — context-free grammars served through the
//!   certified LR(1) subsystem (`lambek-lr`): LALR(1) grammars get
//!   linear-time dense-table parsing, every reduction certified as it
//!   fires; a grammar with LR conflicts is refused at compile time
//!   ([`EngineError::Compile`] carrying the conflict report), so the
//!   cache never holds a pipeline that could not serve it in linear
//!   time.
//!
//! Everything here rides on the `Send + Sync` parse-transformer layer
//! (grammars and transformers are `Arc`-shared) and on the dense
//! flat transition tables of
//! [`lambek_automata::dfa::Dfa`] — the engine holds no locks while
//! parsing, only while touching the pipeline cache (a hit is one
//! id-keyed map probe plus a credit refresh under a mutex; a miss holds
//! the mutex for the duration of the one compilation, serializing
//! lookups until the pipeline is cached — the strict compile-once
//! contract).
//!
//! The serving tier on top of the pipelines:
//!
//! * a persistent work-stealing worker pool (created once per engine,
//!   lazily) that [`Engine::parse_many`]/[`Engine::parse_many_str`]
//!   submit request shards to, with per-request admission limits
//!   ([`RequestLimits`]) surfaced as structured report outcomes;
//! * a cost-weighted evicting pipeline cache ([`CacheConfig`]): entry
//!   weight is the *measured* compile time, so expensive lexed-CFG
//!   pipelines outlive swarms of cheap regex ones;
//! * serializable stream sessions: [`StreamParser::snapshot`] parks a
//!   push-mode session as a versioned, checksummed log of its input
//!   ([`SessionState`]) and [`Engine::resume`] revives it — on this or
//!   any other engine — by pushing that input into a fresh stream, with
//!   the certification contract intact.
//!
//! ```
//! use lambek_core::alphabet::Alphabet;
//! use lambek_engine::{Engine, PipelineSpec};
//!
//! let engine = Engine::new();
//! let spec = PipelineSpec::regex(Alphabet::abc(), "(a*b)|c");
//! let pipeline = engine.get_or_compile(&spec).unwrap();
//!
//! let w = pipeline.alphabet().parse_str("aab").unwrap();
//! assert!(pipeline.parse(&w).unwrap().is_accept());
//!
//! // The second lookup is a cache hit: no recompilation.
//! let again = engine.get_or_compile(&spec).unwrap();
//! assert_eq!(engine.stats().compiles, 1);
//! assert!(std::sync::Arc::ptr_eq(&pipeline, &again));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
// The pool's CPU-affinity module is the one exception, and says why.
#![deny(unsafe_code)]

mod batch;
mod cache;
mod pipeline;
mod pool;
mod session;
mod stream;
mod text;

pub use batch::{ParseReport, ReportOutcome, RequestLimits, StrParseReport, StrReportOutcome};
pub use cache::CacheConfig;
pub use pipeline::{
    CfgBackend, CompiledPipeline, Derivation, DfaBackend, LexedCfgBackend, PipelineSpec, SpecKey,
    StrOutcome,
};
pub use pool::PoolStats;
pub use session::{SessionError, SessionState, SESSION_VERSION};
pub use stream::{StreamParser, StreamProgress};
pub use text::{CompileTextOptions, PipelineHandle};
// The frontend's structured outcomes, re-exported so `compile_text`
// callers need no direct `lambek-frontend` dependency.
pub use lambek_frontend::{
    Budgets, ConflictReport, ConflictSite, FrontendError, FrontendErrorKind, FrontendReport,
};

use std::borrow::Borrow;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use lambek_core::alphabet::GString;

use cache::PipelineCache;
use pipeline::CompileFailure;
use pool::WorkerPool;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The pipeline failed to compile (bad regex syntax, equivalences
    /// that do not compose, a grammar that is not LALR(1), …).
    Compile(String),
    /// A streaming parser was requested for a pipeline with no DFA
    /// backend (e.g. the lookahead-automaton expression pipeline).
    NoStreamingBackend(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Compile(m) => write!(f, "pipeline compilation failed: {m}"),
            EngineError::NoStreamingBackend(m) => {
                write!(f, "pipeline {m} has no DFA backend for streaming")
            }
        }
    }
}

impl std::error::Error for EngineError {}

pub use lambek_obs::Histogram as LatencyHistogram;
pub use lambek_obs::HISTOGRAM_BUCKETS as LATENCY_BUCKETS;

/// Observability configuration for an engine (see
/// [`Engine::with_obs`]).
///
/// The metrics registry ([`Engine::metrics_text`] /
/// [`Engine::metrics_json`]) is always on — its instruments are relaxed
/// atomics whose cost is unmeasurable. Per-request *stage tracing* is
/// opt-in: when `tracing` is set, every request served through
/// [`Engine::parse_many`] / [`Engine::parse_many_str`] carries a
/// [`lambek_obs::Trace`] of timestamped stage spans in its report, and
/// the engine retains the last `trace_ring` completed traces for
/// [`Engine::recent_traces`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record per-request stage traces (default `false`). Tracing
    /// changes only what gets recorded, never which code runs: a traced
    /// request runs the same pipeline call as an untraced one, wrapped
    /// in one `parse` span (plus the cache, compile, queue and finish
    /// spans around it). The split of a parse into scan / certify / LR
    /// drive is measured by timing those layers' public calls
    /// separately, not by tracing.
    pub tracing: bool,
    /// How many completed traces [`Engine::recent_traces`] retains
    /// (default 32; minimum 1).
    pub trace_ring: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            tracing: false,
            trace_ring: 32,
        }
    }
}

/// The engine's registered instruments plus the trace ring — built once
/// per engine, shared (`Arc`) into every pooled batch closure.
#[derive(Debug)]
pub(crate) struct Metrics {
    registry: lambek_obs::Registry,
    pub(crate) hits: Arc<lambek_obs::Counter>,
    pub(crate) misses: Arc<lambek_obs::Counter>,
    pub(crate) compiles: Arc<lambek_obs::Counter>,
    pub(crate) hit_lat: Arc<lambek_obs::AtomicHistogram>,
    pub(crate) miss_lat: Arc<lambek_obs::AtomicHistogram>,
    pub(crate) requests: Arc<lambek_obs::Counter>,
    pub(crate) tokens: Arc<lambek_obs::Counter>,
    pub(crate) traces: lambek_obs::TraceRing,
    pub(crate) tracing: bool,
}

impl Metrics {
    fn new(config: &ObsConfig) -> Metrics {
        let registry = lambek_obs::Registry::new();
        let hits = registry.counter(
            "lambekd_cache_hits_total",
            "Pipeline-cache lookups answered from the cache",
        );
        let misses = registry.counter(
            "lambekd_cache_misses_total",
            "Pipeline-cache lookups that required compilation",
        );
        let compiles = registry.counter(
            "lambekd_cache_compiles_total",
            "Pipelines actually compiled",
        );
        let hit_lat = registry.histogram(
            "lambekd_cache_hit_latency_seconds",
            "End-to-end latency of cache hits (mutex wait + probe)",
        );
        let miss_lat = registry.histogram(
            "lambekd_cache_miss_latency_seconds",
            "End-to-end latency of cache misses (mutex wait + compilation)",
        );
        let requests = registry.counter(
            "lambekd_requests_total",
            "Requests served through the engine's batch entrances",
        );
        let tokens = registry.counter(
            "lambekd_tokens_total",
            "Yield tokens across accepted raw-text batch parses",
        );
        Metrics {
            registry,
            hits,
            misses,
            compiles,
            hit_lat,
            miss_lat,
            requests,
            tokens,
            traces: lambek_obs::TraceRing::new(config.trace_ring),
            tracing: config.tracing,
        }
    }
}

/// Cache observability counters (see [`Engine::stats`]).
///
/// `hits + misses` is the number of [`Engine::get_or_compile`] calls;
/// `compiles` counts actual pipeline constructions — the compile-once
/// guarantee is `compiles ≤ distinct specs` (a miss that loses a race
/// with a concurrent miss on the same spec is counted in `misses` but
/// performs no compilation, so `compiles ≤ misses`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required compilation.
    pub misses: u64,
    /// Pipelines actually compiled.
    pub compiles: u64,
    /// Pipelines currently resident.
    pub entries: usize,
    /// End-to-end latency of cache hits (mutex wait + probe). Only
    /// successful lookups are recorded.
    pub hit_latency: LatencyHistogram,
    /// End-to-end latency of cache misses — mutex wait plus the full
    /// pipeline compilation. Failed compilations are not recorded.
    pub miss_latency: LatencyHistogram,
}

/// Full serving-tier observability (see [`Engine::engine_stats`]):
/// the cache counters of [`CacheStats`] plus eviction, compile-latency
/// and worker-pool counters.
///
/// Counter algebra a healthy engine maintains (asserted by the stress
/// suite): `hits + misses == get_or_compile calls`,
/// `compiles == misses` (the mutex leaves no race window),
/// `evictions ≤ compiles`, and
/// `cache.entries == compiles − evictions − cleared`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// The hit/miss/compile counters.
    pub cache: CacheStats,
    /// Entries evicted by the cost-weighted policy (operator
    /// [`Engine::clear`]s are not counted).
    pub evictions: u64,
    /// Sum of the compile times of the currently resident pipelines —
    /// the quantity [`CacheConfig::max_weight`] bounds.
    pub resident_weight: Duration,
    /// Total wall-clock compile time across all compilations.
    pub compile_total: Duration,
    /// The single slowest compilation.
    pub compile_max: Duration,
    /// Worker-pool counters (all zero until the first pooled batch).
    pub pool: PoolStats,
}

/// A serving engine: a thread-safe compile-once cache of verified parser
/// pipelines, a persistent worker pool for batches, and the park/resume
/// endpoint for stream sessions.
///
/// `Engine` is cheap to share (`&Engine` is all the batch workers need)
/// and holds its lock only around cache probes — parsing itself runs on
/// lock-free shared [`CompiledPipeline`]s.
#[derive(Debug)]
pub struct Engine {
    cache: Mutex<PipelineCache>,
    /// The persistent worker pool, spawned lazily on the first batch
    /// that wants parallelism and kept alive for the engine's lifetime.
    pool: OnceLock<WorkerPool>,
    metrics: Arc<Metrics>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// Creates an empty engine with the default (generous) cache
    /// bounds; see [`Engine::with_config`] for tight ones.
    pub fn new() -> Engine {
        Engine::with_config(CacheConfig::default())
    }

    /// Creates an empty engine whose pipeline cache enforces `config`
    /// (tracing off; see [`Engine::with_obs`]).
    pub fn with_config(config: CacheConfig) -> Engine {
        Engine::with_obs(config, ObsConfig::default())
    }

    /// Creates an empty engine with explicit cache *and* observability
    /// configuration — the constructor to use when per-request stage
    /// tracing ([`ObsConfig::tracing`]) is wanted.
    pub fn with_obs(config: CacheConfig, obs: ObsConfig) -> Engine {
        Engine {
            cache: Mutex::new(PipelineCache::new(config)),
            pool: OnceLock::new(),
            metrics: Arc::new(Metrics::new(&obs)),
        }
    }

    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(0))
    }

    /// The cache lock, poisoned or not. A panic under the lock (say, in
    /// a compile) leaves the cache consistent: a compile runs before
    /// the insert that would publish it, and every other update is a
    /// few field writes that cannot unwind halfway.
    fn lock_cache(&self) -> MutexGuard<'_, PipelineCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the compiled pipeline for `spec`, compiling it on first
    /// use and serving the shared `Arc` afterwards. A hit refreshes the
    /// entry's eviction credit; a miss may evict other entries to stay
    /// within the engine's [`CacheConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Compile`] if the spec does not compile
    /// (e.g. regex syntax errors, or a CFG that is not LALR(1));
    /// failed compilations are not cached.
    pub fn get_or_compile(
        &self,
        spec: &PipelineSpec,
    ) -> Result<Arc<CompiledPipeline>, EngineError> {
        self.get_or_compile_timed(spec)
            .map(|(p, _, _)| p)
            .map_err(EngineError::from)
    }

    /// [`Engine::get_or_compile`] reporting how the time was spent:
    /// the probe duration (mutex wait + cache lookup) and, on a miss,
    /// the compile duration — the batch entrances stamp these into each
    /// request's trace as the `cache` and `compile` spans.
    fn get_or_compile_timed(
        &self,
        spec: &PipelineSpec,
    ) -> Result<(Arc<CompiledPipeline>, Duration, Option<Duration>), CompileFailure> {
        // One mutex for the whole probe-or-compile: concurrent misses
        // on the same spec compile exactly once, which keeps the
        // compile-once contract strict (not merely eventual). The
        // latency clock starts before the lock, so the histograms see
        // what callers see: a hit stuck behind a long compile lands in
        // a high hit bucket, which is exactly the signal an operator
        // wants from these counters.
        let t0 = std::time::Instant::now();
        let mut cache = self.lock_cache();
        if let Some(hit) = cache.get(spec) {
            self.metrics.hits.inc();
            let lookup = t0.elapsed();
            self.metrics.hit_lat.record(lookup);
            return Ok((hit, lookup, None));
        }
        self.metrics.misses.inc();
        self.metrics.compiles.inc();
        let lookup = t0.elapsed();
        let tc = std::time::Instant::now();
        let compiled = Arc::new(spec.compile_or_shed()?);
        let compile = tc.elapsed();
        cache.insert(spec.clone(), compiled.clone());
        self.metrics.miss_lat.record(t0.elapsed());
        Ok((compiled, lookup, Some(compile)))
    }

    /// Parses every input against the pipeline for `spec`, sharding the
    /// batch over the engine's persistent worker pool (`workers` caps
    /// the shard count; 1 = sequential in the calling thread, 0 = one
    /// shard per pool worker). Reports come back in input order. An
    /// empty batch short-circuits: no pool submission, no shards.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Compile`] if the pipeline cannot be built;
    /// per-input failures are reported in the corresponding
    /// [`ParseReport`], never as an `Err`.
    pub fn parse_many(
        &self,
        spec: &PipelineSpec,
        inputs: &[GString],
        workers: usize,
    ) -> Result<Vec<ParseReport>, EngineError> {
        self.parse_many_with(spec, inputs, workers, RequestLimits::none())
    }

    /// [`Engine::parse_many`] with per-request admission limits: inputs
    /// over the token budget, or picked up after the deadline, come
    /// back as [`ReportOutcome::BudgetExceeded`] /
    /// [`ReportOutcome::DeadlineExceeded`] instead of being parsed.
    ///
    /// # Errors
    ///
    /// As [`Engine::parse_many`].
    pub fn parse_many_with(
        &self,
        spec: &PipelineSpec,
        inputs: &[GString],
        workers: usize,
        limits: RequestLimits,
    ) -> Result<Vec<ParseReport>, EngineError> {
        self.serve_batch(
            spec,
            inputs,
            workers,
            limits,
            GString::clone,
            batch::parse_one,
        )
    }

    /// Parses every *raw-text* input against the pipeline for `spec`
    /// (the batch form of [`CompiledPipeline::parse_str`]): for lexed
    /// pipelines each input runs certified lexing and then the
    /// certified CFG backend, with rejections carrying byte offsets
    /// into the text. Fan-out and ordering as [`Engine::parse_many`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Compile`] if the pipeline cannot be
    /// built; per-input failures land in the matching
    /// [`StrParseReport`].
    pub fn parse_many_str(
        &self,
        spec: &PipelineSpec,
        inputs: &[&str],
        workers: usize,
    ) -> Result<Vec<StrParseReport>, EngineError> {
        self.parse_many_str_with(spec, inputs, workers, RequestLimits::none())
    }

    /// [`Engine::parse_many_str`] with per-request admission limits
    /// (the budget counts raw bytes).
    ///
    /// # Errors
    ///
    /// As [`Engine::parse_many_str`].
    pub fn parse_many_str_with(
        &self,
        spec: &PipelineSpec,
        inputs: &[&str],
        workers: usize,
        limits: RequestLimits,
    ) -> Result<Vec<StrParseReport>, EngineError> {
        self.serve_batch(
            spec,
            inputs,
            workers,
            limits,
            |s: &&str| (*s).to_owned(),
            batch::parse_one_str,
        )
    }

    /// The body both batch entrances share: look the pipeline up (or
    /// compile it), then serve each input with `serve` — sequentially
    /// in the calling thread for `workers == 1`, otherwise sharded over
    /// the pool. The pool's workers are long-lived (`'static`), so
    /// shards own their inputs: one `own` copy per request, paid
    /// against the per-call thread spawn/join the pool amortizes away.
    fn serve_batch<T, I, Q, R>(
        &self,
        spec: &PipelineSpec,
        inputs: &[T],
        workers: usize,
        limits: RequestLimits,
        own: impl Fn(&T) -> I,
        serve: fn(&CompiledPipeline, usize, &Q, &RequestLimits, Option<&batch::ObsCtx>) -> R,
    ) -> Result<Vec<R>, EngineError>
    where
        T: Borrow<Q>,
        I: Borrow<Q> + Send + 'static,
        Q: ?Sized + 'static,
        R: Send + 'static,
    {
        let epoch = Instant::now();
        let (pipeline, lookup, compile) = self.get_or_compile_timed(spec)?;
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let mut ctx = batch::ObsCtx {
            metrics: self.metrics.clone(),
            label: spec.label(),
            epoch,
            cache_lookup: lookup,
            compile,
            enqueue: epoch.elapsed(),
        };
        if workers == 1 {
            return Ok(inputs
                .iter()
                .enumerate()
                .map(|(i, x)| serve(&pipeline, i, x.borrow(), &limits, Some(&ctx)))
                .collect());
        }
        let items: Vec<I> = inputs.iter().map(own).collect();
        ctx.enqueue = epoch.elapsed();
        Ok(self.pool().run_batch(items, workers, move |i, x| {
            serve(&pipeline, i, x.borrow(), &limits, Some(&ctx))
        }))
    }

    /// Opens a push-mode streaming parser for `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Compile`] if the pipeline cannot be built
    /// (a conflicted CFG among them), or
    /// [`EngineError::NoStreamingBackend`] if it has neither a DFA nor
    /// LR tables behind it.
    pub fn stream(&self, spec: &PipelineSpec) -> Result<StreamParser, EngineError> {
        StreamParser::open(self.get_or_compile(spec)?)
    }

    /// Revives a parked stream session (see [`StreamParser::snapshot`])
    /// against the pipeline for `spec` — on this engine or any other,
    /// in this process or another. The blob's checksum, version and
    /// structural spec fingerprint are verified, then a fresh stream is
    /// opened and fed the parked input through the live, certified path
    /// ([`StreamParser::resume`]); nothing else in the blob is
    /// installed. A resumed session thus certifies exactly what an
    /// uninterrupted one would — a corrupt or mismatched blob is a
    /// structured [`SessionError`], never a mis-certification.
    ///
    /// # Errors
    ///
    /// [`SessionError::Corrupt`] for damaged blobs,
    /// [`SessionError::Version`] / [`SessionError::SpecMismatch`] for
    /// incompatible ones, [`SessionError::Invalid`] for a blob whose
    /// mode is not the pipeline's stream mode, whose input holds a
    /// symbol outside the pipeline's alphabet, or whose replay records a
    /// certification fault, and [`SessionError::Engine`] if the pipeline
    /// itself cannot be built.
    pub fn resume(
        &self,
        spec: &PipelineSpec,
        state: &SessionState,
    ) -> Result<StreamParser, SessionError> {
        let pipeline = self.get_or_compile(spec).map_err(SessionError::Engine)?;
        StreamParser::resume(pipeline, state)
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.metrics.hits.get(),
            misses: self.metrics.misses.get(),
            compiles: self.metrics.compiles.get(),
            entries: self.lock_cache().len(),
            hit_latency: self.metrics.hit_lat.snapshot(),
            miss_latency: self.metrics.miss_lat.snapshot(),
        }
    }

    /// The full serving-tier counters: cache, eviction, compile-latency
    /// and worker-pool observability in one structure.
    pub fn engine_stats(&self) -> EngineStats {
        let (evictions, resident_weight, compile_total, compile_max, entries) = {
            let cache = self.lock_cache();
            (
                cache.evictions(),
                cache.resident_weight(),
                cache.compile_total(),
                cache.compile_max(),
                cache.len(),
            )
        };
        EngineStats {
            cache: CacheStats {
                hits: self.metrics.hits.get(),
                misses: self.metrics.misses.get(),
                compiles: self.metrics.compiles.get(),
                entries,
                hit_latency: self.metrics.hit_lat.snapshot(),
                miss_latency: self.metrics.miss_lat.snapshot(),
            },
            evictions,
            resident_weight,
            compile_total,
            compile_max,
            pool: self.pool.get().map(WorkerPool::stats).unwrap_or_default(),
        }
    }

    /// Assembles every instrument the engine knows about into encoder
    /// input: the registered per-engine instruments, the dynamic cache
    /// and pool gauges, and the process-wide lex/LR/certifier hot-path
    /// probes.
    fn gather_metrics(&self) -> Vec<lambek_obs::Metric> {
        use lambek_obs::{Metric, MetricValue, Sample};
        let mut out = self.metrics.registry.gather();
        let (evictions, resident_weight, compile_total, compile_max, entries) = {
            let cache = self.lock_cache();
            (
                cache.evictions(),
                cache.resident_weight(),
                cache.compile_total(),
                cache.compile_max(),
                cache.len(),
            )
        };
        out.push(Metric::single(
            "lambekd_cache_entries",
            "Pipelines currently resident in the cache",
            MetricValue::Gauge(entries as f64),
        ));
        out.push(Metric::single(
            "lambekd_cache_evictions_total",
            "Entries evicted by the cost-weighted policy",
            MetricValue::Counter(evictions),
        ));
        out.push(Metric::single(
            "lambekd_cache_resident_weight_seconds",
            "Sum of resident pipelines' compile times (the evictor's weight)",
            MetricValue::Gauge(resident_weight.as_secs_f64()),
        ));
        out.push(Metric::single(
            "lambekd_compile_seconds_total",
            "Total wall-clock compile time across all compilations",
            MetricValue::Gauge(compile_total.as_secs_f64()),
        ));
        out.push(Metric::single(
            "lambekd_compile_max_seconds",
            "The single slowest compilation",
            MetricValue::Gauge(compile_max.as_secs_f64()),
        ));
        let pool = self.pool.get().map(WorkerPool::stats).unwrap_or_default();
        out.push(Metric::single(
            "lambekd_pool_workers",
            "Worker threads in the persistent pool (0 until first use)",
            MetricValue::Gauge(pool.workers as f64),
        ));
        out.push(Metric::single(
            "lambekd_pool_pinned_workers",
            "Pool workers pinned to their own CPU (below lambekd_pool_workers when a pin failed)",
            MetricValue::Gauge(pool.pinned as f64),
        ));
        out.push(Metric::single(
            "lambekd_pool_submitted_total",
            "Jobs submitted to the pool",
            MetricValue::Counter(pool.submitted),
        ));
        out.push(Metric::single(
            "lambekd_pool_executed_total",
            "Jobs executed by pool workers",
            MetricValue::Counter(pool.executed),
        ));
        out.push(Metric::single(
            "lambekd_pool_steals_total",
            "Jobs a worker stole from a sibling's queue",
            MetricValue::Counter(pool.steals),
        ));
        out.push(Metric::single(
            "lambekd_pool_batches_total",
            "Batches run on the pool",
            MetricValue::Counter(pool.batches),
        ));
        if let Some(p) = self.pool.get() {
            out.push(Metric {
                name: "lambekd_pool_queue_depth".to_string(),
                help: "Jobs currently waiting in each worker's queue".to_string(),
                samples: p
                    .queue_depths()
                    .into_iter()
                    .enumerate()
                    .map(|(shard, depth)| Sample {
                        labels: vec![("shard".to_string(), shard.to_string())],
                        value: MetricValue::Gauge(depth as f64),
                    })
                    .collect(),
            });
        }
        out.push(Metric::single(
            "lambekd_traces_total",
            "Per-request traces completed (tracing engines only)",
            MetricValue::Counter(self.metrics.traces.pushed()),
        ));
        // The hot-path probes are process-wide statics (the lex and LR
        // drivers are engine-agnostic), so under several engines these
        // report the process total, not this engine's share.
        let lex = lambek_lex::probes::snapshot();
        out.push(Metric::single(
            "lambekd_lex_scan_bytes_total",
            "Bytes walked by the maximal-munch scanner (process-wide)",
            MetricValue::Counter(lex.scan_bytes),
        ));
        out.push(Metric {
            name: "lambekd_lex_tokens_total".to_string(),
            help: "Lexemes settled by the scanner, by scan lane (process-wide)".to_string(),
            samples: vec![
                Sample {
                    labels: vec![("lane".to_string(), "fast".to_string())],
                    value: MetricValue::Counter(lex.fast_lane_tokens),
                },
                Sample {
                    labels: vec![("lane".to_string(), "fallback".to_string())],
                    value: MetricValue::Counter(lex.fallback_tokens),
                },
            ],
        });
        out.push(Metric::single(
            "lambekd_lex_backtracks_total",
            "Maximal-munch backtracks (scans read past the accepted end; process-wide)",
            MetricValue::Counter(lex.backtracks),
        ));
        out.push(Metric::single(
            "lambekd_lex_munch_memo_sheds_total",
            "One-shot lexes shed because their maximal-munch memo would outgrow its cap \
             (process-wide)",
            MetricValue::Counter(lex.munch_memo_sheds),
        ));
        // Every certifier verdict is a read from tables built at compile
        // time, so no lookup misses. The series stays because repobench
        // derives `lex.verdict_hit_ratio` from it.
        out.push(Metric {
            name: "lambekd_certifier_verdict_lookups_total".to_string(),
            help: "Certifier verdicts read from the eager derivative tables, by result: \
                   hit = certified lexemes; miss is always 0 (process-wide)"
                .to_string(),
            samples: vec![
                Sample {
                    labels: vec![("result".to_string(), "hit".to_string())],
                    value: MetricValue::Counter(lex.certified_lexemes),
                },
                Sample {
                    labels: vec![("result".to_string(), "miss".to_string())],
                    value: MetricValue::Counter(0),
                },
            ],
        });
        let lr = lambek_lr::probes::snapshot();
        out.push(Metric::single(
            "lambekd_lr_shifts_total",
            "Terminals shifted by completed LR drives (process-wide)",
            MetricValue::Counter(lr.shifts),
        ));
        out.push(Metric::single(
            "lambekd_lr_reduces_total",
            "Reductions performed by completed LR drives (process-wide)",
            MetricValue::Counter(lr.reduces),
        ));
        out.push(Metric::single(
            "lambekd_lr_claims_checked_total",
            "Certification claims discharged by the LR driver (process-wide)",
            MetricValue::Counter(lr.claims_checked),
        ));
        let frontend = lambek_frontend::probes::snapshot();
        out.push(Metric::single(
            "lambekd_frontend_texts_total",
            "Grammar-language texts submitted for compilation (process-wide)",
            MetricValue::Counter(frontend.texts_compiled),
        ));
        out.push(Metric::single(
            "lambekd_frontend_elab_failures_total",
            "Text submissions rejected by parse or elaboration (process-wide)",
            MetricValue::Counter(frontend.elab_failures),
        ));
        out.push(Metric::single(
            "lambekd_frontend_conflict_rejects_total",
            "Text submissions rejected for LALR conflicts (process-wide)",
            MetricValue::Counter(frontend.conflict_rejects),
        ));
        out.push(Metric::single(
            "lambekd_frontend_budget_sheds_total",
            "Text submissions shed by a compile-time budget (process-wide)",
            MetricValue::Counter(frontend.budget_sheds),
        ));
        out
    }

    /// Every engine metric in the Prometheus text exposition format
    /// (version 0.0.4) — cache, pool, trace, lex, LR and certifier
    /// instruments, ready to serve from a `/metrics` endpoint.
    pub fn metrics_text(&self) -> String {
        lambek_obs::prometheus_text(&self.gather_metrics())
    }

    /// Every engine metric as a stable JSON snapshot (metrics sorted by
    /// name, labels sorted by key, histograms lossless in nanoseconds).
    pub fn metrics_json(&self) -> String {
        lambek_obs::json_text(&self.gather_metrics())
    }

    /// The most recently completed per-request traces, newest first —
    /// empty unless the engine was built with [`ObsConfig::tracing`].
    /// The ring retains at most [`ObsConfig::trace_ring`] traces.
    pub fn recent_traces(&self) -> Vec<lambek_obs::Trace> {
        self.metrics.traces.recent()
    }

    /// The current depth of each pool worker's queue (empty until the
    /// pool first runs a batch). Each depth is exact per queue; the
    /// vector is not a cross-queue atomic snapshot.
    pub fn pool_queue_depths(&self) -> Vec<usize> {
        self.pool
            .get()
            .map(WorkerPool::queue_depths)
            .unwrap_or_default()
    }

    /// Drops every cached pipeline (counters are kept; operator clears
    /// do not count as evictions).
    pub fn clear(&self) {
        self.lock_cache().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambek_core::alphabet::Alphabet;
    use lambek_frontend::{elaborate, parse_text, presets, BudgetKind};

    const ARITH: &str = "token NUM = [0-9]+ ;\nskip WS = [ \t\n]+ ;\nExpr ::= Expr '+' Term | Term ;\nTerm ::= NUM | '(' Expr ')' ;\n";

    /// End-to-end accept/reject through a text-compiled pipeline.
    fn accepts(handle: &PipelineHandle, input: &str) -> bool {
        handle
            .pipeline
            .lexed_backend()
            .expect("a text pipeline is lexed")
            .parse_str(input)
            .expect("certified parse")
            .is_accept()
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<CompiledPipeline>();
        assert_send_sync::<Arc<CompiledPipeline>>();
    }

    #[test]
    fn bad_regex_is_a_compile_error_and_not_cached() {
        let engine = Engine::new();
        let spec = PipelineSpec::regex(Alphabet::abc(), "(((");
        assert!(matches!(
            engine.get_or_compile(&spec),
            Err(EngineError::Compile(_))
        ));
        assert_eq!(engine.stats().entries, 0);
        // The failure is re-attempted (and re-fails) on the next call.
        assert!(engine.get_or_compile(&spec).is_err());
        assert_eq!(engine.stats().misses, 2);
    }

    #[test]
    fn cache_latency_histograms_count_hits_and_misses() {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck(4);
        assert_eq!(engine.stats().hit_latency.count(), 0);
        assert_eq!(engine.stats().miss_latency.count(), 0);
        engine.get_or_compile(&spec).unwrap();
        engine.get_or_compile(&spec).unwrap();
        engine.get_or_compile(&spec).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.miss_latency.count(), 1);
        assert_eq!(stats.hit_latency.count(), 2);
        // The quantile bound is monotone and sane: a compile takes at
        // least a microsecond on any hardware.
        let p100 = stats.miss_latency.quantile_nanos(1.0).unwrap();
        assert!(p100 >= stats.miss_latency.quantile_nanos(0.5).unwrap());
        assert!(p100 >= 1_000, "compile latency bound {p100}ns");
        // Failed compilations record no sample.
        let bad = PipelineSpec::regex(Alphabet::abc(), "(((");
        assert!(engine.get_or_compile(&bad).is_err());
        assert_eq!(engine.stats().miss_latency.count(), 1);
        assert!(engine.stats().hit_latency.quantile_nanos(0.99).is_some());
        assert_eq!(LatencyHistogram::default().quantile_nanos(0.5), None);
        assert_eq!(LatencyHistogram::bucket_floor_nanos(0), 0);
        assert_eq!(LatencyHistogram::bucket_floor_nanos(10), 1024);
    }

    #[test]
    fn clear_evicts_but_keeps_counters() {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck(8);
        engine.get_or_compile(&spec).unwrap();
        assert_eq!(engine.stats().entries, 1);
        engine.clear();
        assert_eq!(engine.stats().entries, 0);
        engine.get_or_compile(&spec).unwrap();
        assert_eq!(engine.stats().compiles, 2);
    }

    #[test]
    fn a_poisoned_cache_lock_still_serves() {
        let engine = Engine::new();
        let resident = engine.compile_text(ARITH).expect("arith compiles");
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = engine.cache.lock();
                panic!("a panic under the cache lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(engine.cache.is_poisoned());
        // Both the text map and the full path still answer.
        let again = engine.compile_text(ARITH).expect("served from the map");
        assert!(again.cache_hit);
        assert!(Arc::ptr_eq(&resident.pipeline, &again.pipeline));
        let reworded = engine
            .compile_text(&format!("# reworded\n{ARITH}"))
            .expect("served by the structural key");
        assert!(reworded.cache_hit);
        let reports = engine
            .parse_many_str(&again.spec, &["1+(2+34)", "1++2"], 1)
            .expect("parses");
        let accepted: Vec<bool> = reports.iter().map(|r| r.outcome.is_accept()).collect();
        assert_eq!(accepted, [true, false]);
        assert_eq!(engine.stats().entries, 1);
    }

    #[test]
    fn arith_compiles_and_parses() {
        let handle = Engine::new().compile_text(ARITH).expect("arith compiles");
        assert_eq!(handle.start, "Expr");
        assert!(accepts(&handle, "1+(2+34)"));
        assert!(accepts(&handle, " 7 + 8 "));
        assert!(!accepts(&handle, "1++2"));
        assert!(!accepts(&handle, "1+"));
        assert!(!accepts(&handle, "a"));
    }

    #[test]
    fn presets_compile_and_accept_their_corpus() {
        let corpus: &[(&str, &[&str], &[&str])] = &[
            (
                "json",
                &[
                    "{\"k\": [1, 2.5e-3, true], \"s\": \"a\\n\\u0041\"}",
                    "[{}, [], null, -0.5, \"\"]",
                    "42",
                ],
                &["{", "[1,]", "{\"k\" 1}", "01"],
            ),
            (
                "csv",
                &["a,b,c\n1,,3", "\"a,b\",\"he said \"\"hi\"\"\"\nx,y", "a"],
                &["\"unterminated", "a,\"b\"x"],
            ),
            (
                "ini",
                &[
                    "[core]\nname = lambekd\n; comment\nversion = \"0.1\" extra\n",
                    "\n\n",
                    "",
                ],
                &["[unclosed\n", "= novalue\n"],
            ),
            (
                "http",
                &[
                    "GET /index.html HTTP/1.1\r\n",
                    "POST /a?q=1 HTTP/1.0\nDELETE HTTP/9.9 HTTP/1.1\n",
                ],
                &["GET /x\n", "/x GET HTTP/1.1\n"],
            ),
            (
                "clf",
                &[
                    "127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] \"GET /a.gif HTTP/1.0\" 200 2326\n",
                ],
                &["only three atoms here\n"],
            ),
        ];
        let engine = Engine::new();
        for (name, text) in presets::all() {
            let handle = engine
                .compile_text(text)
                .unwrap_or_else(|report| panic!("preset {name} failed:\n{report}"));
            let (_, good, bad) = corpus
                .iter()
                .find(|(n, _, _)| *n == name)
                .expect("corpus covers every preset");
            for input in *good {
                assert!(accepts(&handle, input), "preset {name} rejects {input:?}");
            }
            for input in *bad {
                assert!(!accepts(&handle, input), "preset {name} accepts {input:?}");
            }
        }
    }

    #[test]
    fn conflicts_are_reported_with_rule_sites() {
        // Ambiguous juxtaposition: `E ::= E E | A` shift/reduces in
        // every LR flavor.
        let text = "token A = 'a' ;\nE ::= E E | A ;\n";
        match Engine::new().compile_text(text) {
            Err(FrontendReport::Conflicts(report)) => {
                assert!(!report.report.conflicts.is_empty());
                assert!(!report.sites.is_empty(), "no rule sites mapped");
                for site in &report.sites {
                    assert!(site.span.end <= text.len());
                    assert!(site.line >= 1 && site.col >= 1);
                }
            }
            other => panic!("expected a conflict report, got {other:?}"),
        }
    }

    #[test]
    fn budgets_shed_structurally() {
        let engine = Engine::new();
        let with =
            |budgets: Budgets| engine.compile_text_with(ARITH, &CompileTextOptions { budgets });
        match with(Budgets {
            max_productions: 2,
            ..Budgets::default()
        }) {
            Err(FrontendReport::Budget(shed)) => {
                assert_eq!(shed.kind, BudgetKind::Productions);
                assert_eq!(shed.limit, 2);
                assert!(shed.actual > 2);
            }
            other => panic!("expected a productions shed, got {other:?}"),
        }
        match with(Budgets {
            deadline: Some(Duration::ZERO),
            ..Budgets::default()
        }) {
            Err(FrontendReport::Budget(shed)) => assert_eq!(shed.kind, BudgetKind::Deadline),
            other => panic!("expected a deadline shed, got {other:?}"),
        }
        match with(Budgets {
            max_states: 1,
            ..Budgets::default()
        }) {
            Err(FrontendReport::Budget(shed)) => assert_eq!(shed.kind, BudgetKind::States),
            other => panic!("expected a states shed, got {other:?}"),
        }
    }

    #[test]
    fn literal_reuses_structurally_equal_declared_token() {
        let text =
            "token IF = 'if' ;\ntoken ID = [a-z]+ ;\nskip WS = ' '+ ;\nS ::= 'if' ID | ID ;\n";
        let handle = Engine::new().compile_text(text).expect("compiles");
        // No implicit token was minted: 'if' resolved to IF.
        let elab = elaborate(text, &parse_text(text).expect("parses")).expect("elaborates");
        assert!(elab.literal_tokens.is_empty());
        assert!(accepts(&handle, "if x"));
        // Maximal munch: `iffy` is one ID, not IF + "fy".
        assert!(accepts(&handle, "iffy"));
    }
}
