//! Batch parsing: fan a slice of inputs out over scoped worker threads.
//!
//! The pipeline is compiled once and shared by reference — workers never
//! clone grammars or transformers, they only walk them. Inputs are split
//! into contiguous chunks (one per worker) so reports reassemble in input
//! order without any synchronization beyond the scope join.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lambek_core::alphabet::GString;
use lambek_core::theory::parser::ParseOutcome;
use lambek_core::transform::TransformError;
use lambek_lex::Span;
use lambek_obs::{Recorder, Stage, Trace};

use crate::pipeline::{CompiledPipeline, StrOutcome};

/// Per-batch observability context the engine threads into each
/// request: the engine's metrics to count into, the batch epoch every
/// trace span is measured against, and the batch-level cache-lookup /
/// compile spans stamped into each request's trace. The engine-less
/// [`parse_batch`] / [`parse_batch_str`] baselines pass `None`.
#[derive(Debug, Clone)]
pub(crate) struct ObsCtx {
    pub(crate) metrics: Arc<crate::Metrics>,
    pub(crate) label: String,
    /// The instant the batch entrance was called — every span offset
    /// and trace total is measured from here.
    pub(crate) epoch: Instant,
    /// Duration of the (batch-shared) pipeline-cache probe.
    pub(crate) cache_lookup: Duration,
    /// Duration of the compilation, when the probe missed.
    pub(crate) compile: Option<Duration>,
    /// Offset from the epoch at which the requests were enqueued — the
    /// start of each request's queue-wait span.
    pub(crate) enqueue: Duration,
}

impl ObsCtx {
    /// Opens a request's trace with the spans known before parsing:
    /// the shared cache probe, the compile (if one ran), and this
    /// request's queue wait ending at `pickup`.
    fn begin_trace(&self, index: usize, input_bytes: usize, pickup: Duration) -> Trace {
        let mut t = Trace::new(&self.label, index, input_bytes);
        t.record(Stage::Cache, Duration::ZERO, self.cache_lookup);
        if let Some(c) = self.compile {
            t.record(Stage::Compile, self.cache_lookup, c);
        }
        t.record(
            Stage::Queue,
            self.enqueue,
            pickup.saturating_sub(self.enqueue),
        );
        t
    }

    /// Completes a trace (stamps the total, retains it in the engine's
    /// ring) and hands it back for the report.
    fn finish_trace(&self, mut t: Trace) -> Trace {
        t.total = self.epoch.elapsed();
        self.metrics.traces.push(t.clone());
        t
    }
}

/// What happened to one input of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportOutcome {
    /// The input is in the grammar; the verified parse tree had
    /// `tree_size` constructors.
    Accepted {
        /// Constructor count of the parse tree.
        tree_size: usize,
    },
    /// The input is not in the grammar; the rejection witness (a parse of
    /// the negative grammar) had `witness_size` constructors.
    Rejected {
        /// Constructor count of the rejection witness.
        witness_size: usize,
    },
    /// The pipeline failed on this input (e.g. it exceeds a truncation
    /// bound); the message is the transformer error.
    Failed(String),
    /// The input was over the batch's per-request token budget
    /// ([`RequestLimits::token_budget`]) and was never parsed.
    BudgetExceeded {
        /// The budget the request was admitted under.
        budget: usize,
        /// The input's actual size (symbols, or bytes for raw text).
        required: usize,
    },
    /// The request's wall-clock deadline ([`RequestLimits::deadline`])
    /// had already passed when a worker picked it up; it was never
    /// parsed. Deadlines are checked at request granularity — an
    /// in-flight parse is not interrupted.
    DeadlineExceeded,
}

impl ReportOutcome {
    /// `true` on acceptance.
    pub fn is_accept(&self) -> bool {
        matches!(self, ReportOutcome::Accepted { .. })
    }

    /// `true` when the request was shed by an admission limit
    /// (budget or deadline) rather than parsed.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            ReportOutcome::BudgetExceeded { .. } | ReportOutcome::DeadlineExceeded
        )
    }
}

/// Per-request admission limits for a batch (see
/// [`crate::Engine::parse_many_with`]). Both default to "unlimited";
/// violations surface as structured report outcomes
/// ([`ReportOutcome::BudgetExceeded`] /
/// [`ReportOutcome::DeadlineExceeded`]), never as panics or `Err`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestLimits {
    /// Maximum admissible input size per request: symbols for
    /// [`crate::Engine::parse_many`] batches, raw bytes for
    /// [`crate::Engine::parse_many_str`] batches (for lexed pipelines
    /// the byte length bounds the token count from above, so this is a
    /// sound pre-lex admission check).
    pub token_budget: Option<usize>,
    /// Latest instant at which a request may still *start* parsing.
    /// Checked when a worker picks the request up; a parse already in
    /// flight runs to completion (the drivers are not interruptible —
    /// that is what keeps their certification obligations simple).
    pub deadline: Option<Instant>,
}

impl RequestLimits {
    /// No limits (the default).
    pub fn none() -> RequestLimits {
        RequestLimits::default()
    }

    /// Checks admission for an input of `size` units; `None` means
    /// admitted, `Some` is the shed outcome to report.
    fn admit(&self, size: usize) -> Option<ReportOutcome> {
        if let Some(budget) = self.token_budget {
            if size > budget {
                return Some(ReportOutcome::BudgetExceeded {
                    budget,
                    required: size,
                });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(ReportOutcome::DeadlineExceeded);
            }
        }
        None
    }
}

/// The structured result of parsing one input of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseReport {
    /// Index of the input in the batch slice.
    pub index: usize,
    /// Length of the input string.
    pub input_len: usize,
    /// Outcome of the verified parse.
    pub outcome: ReportOutcome,
    /// Whether the returned tree's yield equals the input — the
    /// intrinsic-verification check, re-asserted per request. Always
    /// `true` for a correct pipeline; `false` for failed inputs.
    pub yield_ok: bool,
    /// Wall-clock time spent parsing this input.
    pub duration: Duration,
    /// Per-request stage trace, when the serving engine was built with
    /// [`crate::ObsConfig::tracing`]; `None` otherwise (including on
    /// the engine-less [`parse_batch`] baseline). For symbolic inputs
    /// the trace's `input_bytes` counts symbols.
    pub trace: Option<Trace>,
}

/// What happened to one raw-text input of a [`parse_batch_str`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrReportOutcome {
    /// Lexed (for lexed pipelines) and parsed; both layers certified.
    Accepted {
        /// Constructor count of the parse tree.
        tree_size: usize,
        /// Number of yield tokens (0 for non-lexed pipelines).
        tokens: usize,
    },
    /// Lexed but not parsed; the span points into the raw input.
    RejectedParse {
        /// Byte span of the offending token (see
        /// [`StrOutcome::RejectParse`]).
        span: Span,
        /// The driver's rejection report.
        message: String,
    },
    /// Did not lex.
    RejectedLex {
        /// Byte offset of the lexical error.
        at: usize,
        /// The lexer's error message.
        message: String,
    },
    /// The pipeline failed on this input (transformer contract error).
    Failed(String),
    /// Over the per-request token budget (bytes of raw text); never
    /// parsed. See [`ReportOutcome::BudgetExceeded`].
    BudgetExceeded {
        /// The budget the request was admitted under.
        budget: usize,
        /// The input's byte length.
        required: usize,
    },
    /// The deadline had passed at pickup; never parsed. See
    /// [`ReportOutcome::DeadlineExceeded`].
    DeadlineExceeded,
}

impl StrReportOutcome {
    /// `true` on acceptance.
    pub fn is_accept(&self) -> bool {
        matches!(self, StrReportOutcome::Accepted { .. })
    }

    /// `true` when the request was shed by an admission limit.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            StrReportOutcome::BudgetExceeded { .. } | StrReportOutcome::DeadlineExceeded
        )
    }
}

/// The structured result of parsing one raw-text input of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrParseReport {
    /// Index of the input in the batch slice.
    pub index: usize,
    /// Length of the input in bytes.
    pub input_bytes: usize,
    /// Outcome of the lex + parse run.
    pub outcome: StrReportOutcome,
    /// Wall-clock time spent on this input.
    pub duration: Duration,
    /// Per-request stage trace, when the serving engine was built with
    /// [`crate::ObsConfig::tracing`]; `None` otherwise (including on
    /// the engine-less [`parse_batch_str`] baseline).
    pub trace: Option<Trace>,
}

/// [`parse_one_str`] behind an admission check: shed requests carry a
/// structured outcome and a near-zero duration. `obs` is the engine's
/// per-batch context (`None` from the engine-less baselines).
pub(crate) fn parse_one_str_limited(
    pipeline: &CompiledPipeline,
    index: usize,
    input: &str,
    limits: &RequestLimits,
    obs: Option<&ObsCtx>,
) -> StrParseReport {
    let pickup = obs.map(|o| o.epoch.elapsed());
    if let Some(o) = obs {
        o.metrics.requests.inc();
    }
    if let Some(shed) = limits.admit(input.len()) {
        let outcome = match shed {
            ReportOutcome::BudgetExceeded { budget, required } => {
                StrReportOutcome::BudgetExceeded { budget, required }
            }
            _ => StrReportOutcome::DeadlineExceeded,
        };
        // A shed request's trace is just its queue wait: it was never
        // parsed, so there are no pipeline stages to time.
        let trace = match obs {
            Some(o) if o.metrics.tracing => {
                let t = o.begin_trace(index, input.len(), pickup.unwrap_or_default());
                Some(o.finish_trace(t))
            }
            _ => None,
        };
        return StrParseReport {
            index,
            input_bytes: input.len(),
            outcome,
            duration: Duration::ZERO,
            trace,
        };
    }
    let report = match obs {
        Some(o) if o.metrics.tracing => {
            parse_one_str_traced(pipeline, index, input, o, pickup.unwrap_or_default())
        }
        _ => parse_one_str(pipeline, index, input),
    };
    if let Some(o) = obs {
        if let StrReportOutcome::Accepted { tokens, .. } = report.outcome {
            o.metrics.tokens.add(tokens as u64);
        }
    }
    report
}

/// Maps a pipeline's raw-text result to the report outcome. Shared by
/// the fused and the traced (staged) request paths, which by
/// construction produce the same [`StrOutcome`] on every input.
fn str_outcome(
    pipeline: &CompiledPipeline,
    result: Result<StrOutcome, TransformError>,
) -> StrReportOutcome {
    match result {
        Ok(StrOutcome::Accept { derivation, tokens }) => StrReportOutcome::Accepted {
            // O(1) on the reduction log CFG pipelines serve: no tree is
            // built, walked or dropped on the way to the report.
            tree_size: derivation.size(),
            // The fused lexed path never materializes the token
            // stream; its yield count is the derivation's yield length
            // (identical by the intrinsic contract — the yield *is* the
            // token string). Non-lexed pipelines stay at 0.
            tokens: match tokens {
                Some(t) => t.yield_string().len(),
                None if pipeline.lexed_backend().is_some() => derivation.yield_len(),
                None => 0,
            },
        },
        Ok(StrOutcome::RejectParse { span, message, .. }) => {
            StrReportOutcome::RejectedParse { span, message }
        }
        Ok(StrOutcome::RejectLex(e)) => StrReportOutcome::RejectedLex {
            at: e.at,
            message: e.to_string(),
        },
        Err(e) => StrReportOutcome::Failed(format!("{e}")),
    }
}

fn parse_one_str(pipeline: &CompiledPipeline, index: usize, input: &str) -> StrParseReport {
    let start = Instant::now();
    let outcome = str_outcome(pipeline, pipeline.parse_str(input));
    StrParseReport {
        index,
        input_bytes: input.len(),
        outcome,
        duration: start.elapsed(),
        trace: None,
    }
}

/// [`parse_one_str`] with stage tracing: runs the pipeline's staged
/// traced path (scan / certify / parse timed separately) and attaches
/// the completed trace to the report.
fn parse_one_str_traced(
    pipeline: &CompiledPipeline,
    index: usize,
    input: &str,
    obs: &ObsCtx,
    pickup: Duration,
) -> StrParseReport {
    let mut trace = obs.begin_trace(index, input.len(), pickup);
    let start = Instant::now();
    let result = pipeline.parse_str_traced(input, obs.epoch, &mut trace);
    let duration = start.elapsed();
    let f0 = obs.epoch.elapsed();
    let outcome = str_outcome(pipeline, result);
    trace.record(Stage::Finish, f0, obs.epoch.elapsed().saturating_sub(f0));
    let trace = obs.finish_trace(trace);
    StrParseReport {
        index,
        input_bytes: input.len(),
        outcome,
        duration,
        trace: Some(trace),
    }
}

/// The shared worker fan-out both batch entrances ride: `0` workers =
/// one per available core, `1` = sequential in the calling thread;
/// inputs split into contiguous chunks (remainder spread over the
/// first few workers) so results reassemble in input order with no
/// synchronization beyond the scope join.
fn fan_out<T: Sync, R: Send>(
    inputs: &[T],
    workers: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        workers
    };
    let workers = workers.clamp(1, inputs.len().max(1));
    if workers == 1 {
        return inputs.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let base = inputs.len() / workers;
    let extra = inputs.len() % workers;
    let mut results = Vec::with_capacity(inputs.len());
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(workers);
        let mut offset = 0;
        for k in 0..workers {
            let len = base + usize::from(k < extra);
            let chunk = &inputs[offset..offset + len];
            let chunk_offset = offset;
            offset += len;
            handles.push(scope.spawn(move || {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, x)| f(chunk_offset + i, x))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            results.extend(h.join().expect("batch worker panicked"));
        }
    });
    results
}

/// Parses every raw-text input against a shared compiled pipeline, with
/// the same worker-fan-out contract as [`parse_batch`] (`1` =
/// sequential, `0` = one worker per core; reports in input order).
pub fn parse_batch_str(
    pipeline: &CompiledPipeline,
    inputs: &[&str],
    workers: usize,
) -> Vec<StrParseReport> {
    fan_out(inputs, workers, |i, s| parse_one_str(pipeline, i, s))
}

/// [`parse_one`] behind an admission check. A shed request's
/// `yield_ok` is vacuously `true`: no tree was produced, so no yield
/// obligation was violated. `obs` is the engine's per-batch context
/// (`None` from the engine-less baselines).
pub(crate) fn parse_one_limited(
    pipeline: &CompiledPipeline,
    index: usize,
    w: &GString,
    limits: &RequestLimits,
    obs: Option<&ObsCtx>,
) -> ParseReport {
    let pickup = obs.map(|o| o.epoch.elapsed());
    if let Some(o) = obs {
        o.metrics.requests.inc();
    }
    if let Some(outcome) = limits.admit(w.len()) {
        let trace = match obs {
            Some(o) if o.metrics.tracing => {
                let t = o.begin_trace(index, w.len(), pickup.unwrap_or_default());
                Some(o.finish_trace(t))
            }
            _ => None,
        };
        return ParseReport {
            index,
            input_len: w.len(),
            outcome,
            yield_ok: true,
            duration: Duration::ZERO,
            trace,
        };
    }
    match obs {
        Some(o) if o.metrics.tracing => {
            parse_one_traced(pipeline, index, w, o, pickup.unwrap_or_default())
        }
        _ => parse_one(pipeline, index, w),
    }
}

/// Maps a pipeline's symbolic parse result to (outcome, yield check).
fn sym_outcome(w: &GString, result: Result<ParseOutcome, TransformError>) -> (ReportOutcome, bool) {
    match result {
        Ok(ParseOutcome::Accept(t)) => (
            ReportOutcome::Accepted {
                tree_size: t.size(),
            },
            &t.flatten() == w,
        ),
        Ok(ParseOutcome::Reject(t)) => (
            ReportOutcome::Rejected {
                witness_size: t.size(),
            },
            &t.flatten() == w,
        ),
        Err(e) => (ReportOutcome::Failed(format!("{e}")), false),
    }
}

fn parse_one(pipeline: &CompiledPipeline, index: usize, w: &GString) -> ParseReport {
    let start = Instant::now();
    let (outcome, yield_ok) = sym_outcome(w, pipeline.parse(w));
    ParseReport {
        index,
        input_len: w.len(),
        outcome,
        yield_ok,
        duration: start.elapsed(),
        trace: None,
    }
}

/// [`parse_one`] with stage tracing: symbolic inputs have no lex
/// stages, so the trace is queue/cache(/compile) plus one parse span
/// and the finish span.
fn parse_one_traced(
    pipeline: &CompiledPipeline,
    index: usize,
    w: &GString,
    obs: &ObsCtx,
    pickup: Duration,
) -> ParseReport {
    let mut trace = obs.begin_trace(index, w.len(), pickup);
    let start = Instant::now();
    let p0 = obs.epoch.elapsed();
    let result = pipeline.parse(w);
    trace.record(Stage::Parse, p0, obs.epoch.elapsed().saturating_sub(p0));
    let duration = start.elapsed();
    let f0 = obs.epoch.elapsed();
    let (outcome, yield_ok) = sym_outcome(w, result);
    trace.record(Stage::Finish, f0, obs.epoch.elapsed().saturating_sub(f0));
    let trace = obs.finish_trace(trace);
    ParseReport {
        index,
        input_len: w.len(),
        outcome,
        yield_ok,
        duration,
        trace: Some(trace),
    }
}

/// Parses every input against a shared compiled pipeline, using up to
/// `workers` scoped threads (`1` means sequential in the calling thread;
/// `0` means one worker per available core). Reports are returned in
/// input order.
///
/// Worker threads only help when cores are available — on a single-core
/// host the fan-out degrades gracefully to sequential-plus-overhead.
pub fn parse_batch(
    pipeline: &CompiledPipeline,
    inputs: &[GString],
    workers: usize,
) -> Vec<ParseReport> {
    fan_out(inputs, workers, |i, w| parse_one(pipeline, i, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineSpec;
    use lambek_core::alphabet::Alphabet;

    #[test]
    fn reports_come_back_in_input_order() {
        let p = PipelineSpec::dyck(12).compile().unwrap();
        let sigma = p.alphabet().clone();
        let inputs: Vec<GString> = ["", "()", ")(", "(())", "(()", "()()()"]
            .iter()
            .map(|s| sigma.parse_str(s).unwrap())
            .collect();
        let reports = parse_batch(&p, &inputs, 3);
        assert_eq!(reports.len(), inputs.len());
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.input_len, inputs[i].len());
        }
        let accepts: Vec<bool> = reports.iter().map(|r| r.outcome.is_accept()).collect();
        assert_eq!(accepts, vec![true, true, false, true, false, true]);
        assert!(reports.iter().all(|r| r.yield_ok));
    }

    #[test]
    fn truncation_overflow_is_a_failed_report_not_a_panic() {
        let p = PipelineSpec::expr(2).compile().unwrap();
        let sigma = Alphabet::arith();
        // n+n has length 3 > the bound 2.
        let w = {
            let n = sigma.symbol("NUM").unwrap();
            let plus = sigma.symbol("+").unwrap();
            GString::from_symbols(vec![n, plus, n])
        };
        let reports = parse_batch(&p, &[w], 1);
        assert!(matches!(reports[0].outcome, ReportOutcome::Failed(_)));
        assert!(!reports[0].yield_ok);
    }

    #[test]
    fn str_batches_report_all_three_rejection_shapes() {
        let p = PipelineSpec::json_lexed().compile().unwrap();
        let inputs = [
            "{\"a\": 1}",
            "[true, null, {\"x\": []}]",
            "{\"a\" 1}", // parse error at the NUM token
            "{?}",       // lex error at '?'
            "",          // lexes to zero tokens, rejected by the grammar
        ];
        let reports = parse_batch_str(&p, &inputs, 2);
        assert_eq!(reports.len(), inputs.len());
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.input_bytes, inputs[i].len());
        }
        assert!(matches!(
            reports[0].outcome,
            StrReportOutcome::Accepted { tokens: 5, .. }
        ));
        assert!(reports[1].outcome.is_accept());
        match &reports[2].outcome {
            StrReportOutcome::RejectedParse { span, .. } => {
                assert_eq!((span.start, span.end), (5, 6));
            }
            other => panic!("expected a parse rejection, got {other:?}"),
        }
        match &reports[3].outcome {
            StrReportOutcome::RejectedLex { at, message } => {
                assert_eq!(*at, 1);
                assert!(message.contains("byte 1"), "{message}");
            }
            other => panic!("expected a lex rejection, got {other:?}"),
        }
        assert!(!reports[4].outcome.is_accept());
    }

    #[test]
    fn str_batches_work_for_char_pipelines_too() {
        let p = PipelineSpec::dyck_cfg().compile().unwrap();
        let reports = parse_batch_str(&p, &["()", ")(", "(z)"], 1);
        assert!(reports[0].outcome.is_accept());
        assert!(matches!(
            reports[1].outcome,
            StrReportOutcome::RejectedParse { .. }
        ));
        assert!(matches!(
            reports[2].outcome,
            StrReportOutcome::RejectedLex { at: 1, .. }
        ));
    }

    #[test]
    fn limits_shed_structured_outcomes_not_panics() {
        let p = PipelineSpec::dyck(12).compile().unwrap();
        let sigma = p.alphabet().clone();
        let w = sigma.parse_str("(())()").unwrap();
        let over = RequestLimits {
            token_budget: Some(3),
            deadline: None,
        };
        let r = parse_one_limited(&p, 0, &w, &over, None);
        assert_eq!(
            r.outcome,
            ReportOutcome::BudgetExceeded {
                budget: 3,
                required: 6
            }
        );
        assert!(r.outcome.is_shed() && !r.outcome.is_accept());
        assert!(r.yield_ok, "shed requests carry no yield obligation");

        let expired = RequestLimits {
            token_budget: None,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        let r = parse_one_limited(&p, 1, &w, &expired, None);
        assert_eq!(r.outcome, ReportOutcome::DeadlineExceeded);

        let roomy = RequestLimits {
            token_budget: Some(6),
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
        };
        let r = parse_one_limited(&p, 2, &w, &roomy, None);
        assert!(r.outcome.is_accept(), "in-budget requests parse normally");
    }

    #[test]
    fn str_limits_shed_on_byte_length() {
        let p = PipelineSpec::json_lexed().compile().unwrap();
        let limits = RequestLimits {
            token_budget: Some(4),
            deadline: None,
        };
        let r = parse_one_str_limited(&p, 0, "[1, 2, 3]", &limits, None);
        assert_eq!(
            r.outcome,
            StrReportOutcome::BudgetExceeded {
                budget: 4,
                required: 9
            }
        );
        let r = parse_one_str_limited(&p, 1, "[1]", &limits, None);
        assert!(r.outcome.is_accept());
    }

    #[test]
    fn more_workers_than_inputs_is_fine() {
        let p = PipelineSpec::dyck(4).compile().unwrap();
        let sigma = p.alphabet().clone();
        let inputs = vec![sigma.parse_str("()").unwrap()];
        let reports = parse_batch(&p, &inputs, 64);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].outcome.is_accept());
        assert!(parse_batch(&p, &[], 8).is_empty());
    }
}
