//! Per-request serving for the engine's batch entrances
//! ([`crate::Engine::parse_many`] / [`crate::Engine::parse_many_str`]):
//! admission limits, the pipeline call, report mapping and — when the
//! engine traces — the request's stage spans, all on one code path.
//!
//! The pipeline is compiled once and shared by reference — workers never
//! clone grammars or transformers, they only walk them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lambek_core::alphabet::GString;
use lambek_core::theory::parser::ParseOutcome;
use lambek_core::transform::TransformError;
use lambek_lex::{MunchMemoShed, Span};
use lambek_obs::{Stage, Trace};

use crate::pipeline::{CompiledPipeline, StrOutcome};

/// Per-batch observability context the engine threads into each
/// request: the engine's metrics to count into, the batch epoch every
/// trace span is measured against, and the batch-level cache-lookup /
/// compile spans stamped into each request's trace.
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
    /// [`crate::ObsConfig::tracing`]; `None` otherwise. For symbolic
    /// inputs the trace's `input_bytes` counts symbols.
    pub trace: Option<Trace>,
}

/// What happened to one raw-text input of a
/// [`crate::Engine::parse_many_str`] batch.
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
    /// Shed mid-lex: the lexer's maximal-munch memo would have outgrown
    /// its cap (see [`StrOutcome::ShedLex`]).
    ShedLex(MunchMemoShed),
}

impl StrReportOutcome {
    /// `true` on acceptance.
    pub fn is_accept(&self) -> bool {
        matches!(self, StrReportOutcome::Accepted { .. })
    }

    /// `true` when the request was shed by an admission limit or by
    /// the lexer's memo cap.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            StrReportOutcome::BudgetExceeded { .. }
                | StrReportOutcome::DeadlineExceeded
                | StrReportOutcome::ShedLex(_)
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
    /// [`crate::ObsConfig::tracing`]; `None` otherwise.
    pub trace: Option<Trace>,
}

/// What [`serve`] hands back for one request: the mapped outcome (or
/// the shed outcome the admission check returned instead), the parse
/// wall time, and the completed trace when the engine traces.
struct Served<O> {
    outcome: Result<O, ReportOutcome>,
    duration: Duration,
    trace: Option<Trace>,
}

/// The one request path both batch entrances serve: count the request,
/// check admission, run `parse` (the pipeline call) and `finish` (the
/// report mapping). Tracing changes what gets recorded, never which
/// code runs: with tracing on, the request's trace carries the batch's
/// cache (and compile) spans, its queue wait ending at pickup, one
/// exact `parse` span around `parse` and one `finish` span around
/// `finish`. A shed request is never parsed; its trace ends at the
/// queue wait.
fn serve<R, O>(
    obs: Option<&ObsCtx>,
    index: usize,
    size: usize,
    limits: &RequestLimits,
    parse: impl FnOnce() -> R,
    finish: impl FnOnce(R) -> O,
) -> Served<O> {
    let mut traced = obs.filter(|o| o.metrics.tracing).map(|o| {
        let trace = o.begin_trace(index, size, o.epoch.elapsed());
        (o, trace)
    });
    if let Some(o) = obs {
        o.metrics.requests.inc();
    }
    if let Some(shed) = limits.admit(size) {
        return Served {
            outcome: Err(shed),
            duration: Duration::ZERO,
            trace: close(traced),
        };
    }
    let start = Instant::now();
    let result = span(&mut traced, Stage::Parse, parse);
    let outcome = span(&mut traced, Stage::Finish, || finish(result));
    let duration = start.elapsed();
    Served {
        outcome: Ok(outcome),
        duration,
        trace: close(traced),
    }
}

/// Completes a traced request's trace (see [`ObsCtx::finish_trace`]).
fn close(traced: Option<(&ObsCtx, Trace)>) -> Option<Trace> {
    traced.map(|(o, t)| o.finish_trace(t))
}

/// Runs `f`, recording it as one `stage` span on a traced request.
fn span<T>(traced: &mut Option<(&ObsCtx, Trace)>, stage: Stage, f: impl FnOnce() -> T) -> T {
    let Some((o, trace)) = traced else {
        return f();
    };
    let s0 = o.epoch.elapsed();
    let out = f();
    trace.record(stage, s0, o.epoch.elapsed().saturating_sub(s0));
    out
}

/// Serves one raw-text request of a batch: [`CompiledPipeline::parse_str`]
/// behind an admission check (shed requests carry a structured outcome
/// and a zero duration). `obs` is the engine's per-batch context (`None`
/// in unit tests).
pub(crate) fn parse_one_str(
    pipeline: &CompiledPipeline,
    index: usize,
    input: &str,
    limits: &RequestLimits,
    obs: Option<&ObsCtx>,
) -> StrParseReport {
    let served = serve(
        obs,
        index,
        input.len(),
        limits,
        || pipeline.parse_str(input),
        |result| str_outcome(pipeline, result),
    );
    let outcome = match served.outcome {
        Ok(outcome) => outcome,
        Err(ReportOutcome::BudgetExceeded { budget, required }) => {
            StrReportOutcome::BudgetExceeded { budget, required }
        }
        Err(_) => StrReportOutcome::DeadlineExceeded,
    };
    if let (Some(o), StrReportOutcome::Accepted { tokens, .. }) = (obs, &outcome) {
        o.metrics.tokens.add(*tokens as u64);
    }
    StrParseReport {
        index,
        input_bytes: input.len(),
        outcome,
        duration: served.duration,
        trace: served.trace,
    }
}

/// Maps a pipeline's raw-text result to the report outcome.
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
        Ok(StrOutcome::ShedLex(shed)) => StrReportOutcome::ShedLex(shed),
        Err(e) => StrReportOutcome::Failed(format!("{e}")),
    }
}

/// Serves one symbolic request of a batch: [`CompiledPipeline::parse`]
/// behind an admission check. A shed request's `yield_ok` is vacuously
/// `true`: no tree was produced, so no yield obligation was violated.
/// `obs` as for [`parse_one_str`].
pub(crate) fn parse_one(
    pipeline: &CompiledPipeline,
    index: usize,
    w: &GString,
    limits: &RequestLimits,
    obs: Option<&ObsCtx>,
) -> ParseReport {
    let served = serve(
        obs,
        index,
        w.len(),
        limits,
        || pipeline.parse(w),
        |result| sym_outcome(w, result),
    );
    let (outcome, yield_ok) = served.outcome.unwrap_or_else(|shed| (shed, true));
    ParseReport {
        index,
        input_len: w.len(),
        outcome,
        yield_ok,
        duration: served.duration,
        trace: served.trace,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, PipelineSpec};
    use lambek_core::alphabet::Alphabet;

    #[test]
    fn reports_come_back_in_input_order() {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck(12);
        let sigma = engine.get_or_compile(&spec).unwrap().alphabet().clone();
        let inputs: Vec<GString> = ["", "()", ")(", "(())", "(()", "()()()"]
            .iter()
            .map(|s| sigma.parse_str(s).unwrap())
            .collect();
        let reports = engine.parse_many(&spec, &inputs, 3).unwrap();
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
        let sigma = Alphabet::arith();
        // n+n has length 3 > the bound 2.
        let w = {
            let n = sigma.symbol("NUM").unwrap();
            let plus = sigma.symbol("+").unwrap();
            GString::from_symbols(vec![n, plus, n])
        };
        let reports = Engine::new()
            .parse_many(&PipelineSpec::expr(2), &[w], 1)
            .unwrap();
        assert!(matches!(reports[0].outcome, ReportOutcome::Failed(_)));
        assert!(!reports[0].yield_ok);
    }

    #[test]
    fn str_batches_report_all_three_rejection_shapes() {
        let inputs = [
            "{\"a\": 1}",
            "[true, null, {\"x\": []}]",
            "{\"a\" 1}", // parse error at the NUM token
            "{?}",       // lex error at '?'
            "",          // lexes to zero tokens, rejected by the grammar
        ];
        let reports = Engine::new()
            .parse_many_str(&PipelineSpec::json_lexed(), &inputs, 2)
            .unwrap();
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
        let reports = Engine::new()
            .parse_many_str(&PipelineSpec::dyck_cfg(), &["()", ")(", "(z)"], 1)
            .unwrap();
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
        let r = parse_one(&p, 0, &w, &over, None);
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
        let r = parse_one(&p, 1, &w, &expired, None);
        assert_eq!(r.outcome, ReportOutcome::DeadlineExceeded);

        let roomy = RequestLimits {
            token_budget: Some(6),
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
        };
        let r = parse_one(&p, 2, &w, &roomy, None);
        assert!(r.outcome.is_accept(), "in-budget requests parse normally");
    }

    #[test]
    fn str_limits_shed_on_byte_length() {
        let p = PipelineSpec::json_lexed().compile().unwrap();
        let limits = RequestLimits {
            token_budget: Some(4),
            deadline: None,
        };
        let r = parse_one_str(&p, 0, "[1, 2, 3]", &limits, None);
        assert_eq!(
            r.outcome,
            StrReportOutcome::BudgetExceeded {
                budget: 4,
                required: 9
            }
        );
        let r = parse_one_str(&p, 1, "[1]", &limits, None);
        assert!(r.outcome.is_accept());
    }

    #[test]
    fn a_munch_memo_over_its_cap_sheds_the_request() {
        // `LONG` cycles through 64 states on `a`, so each byte of a
        // backtrack window costs ~64 memo bits: 600 KB of `a`, which
        // every token would otherwise scan to the end, needs more than
        // the memo's cap.
        let text = format!(
            "token A = 'a' ;\ntoken LONG = '{}'* 'b' ;\nS ::= S X | X ;\nX ::= A | LONG ;\n",
            "a".repeat(64)
        );
        let engine = Engine::new();
        let handle = engine.compile_text(&text).expect("compiles");
        let input = "a".repeat(600_000);
        let before = lambek_lex::probes::snapshot().munch_memo_sheds;
        let backend = handle.pipeline.lexed_backend().expect("lexed");
        let shed = match backend.parse_str(&input) {
            Ok(StrOutcome::ShedLex(shed)) => shed,
            other => panic!("expected a lex shed, got {other:?}"),
        };
        assert_eq!(shed.at, 0);
        assert_eq!(shed.cap, lambek_lex::MAX_MUNCH_MEMO_BYTES);
        assert!(shed.needed > shed.cap, "{shed}");
        let reports = engine
            .parse_many_str(&handle.spec, &[input.as_str()], 1)
            .unwrap();
        assert_eq!(reports[0].outcome, StrReportOutcome::ShedLex(shed));
        assert!(reports[0].outcome.is_shed());
        assert!(lambek_lex::probes::snapshot().munch_memo_sheds >= before + 2);
        // A short run of the same adversary lexes.
        let short = "a".repeat(1000);
        assert!(engine
            .parse_many_str(&handle.spec, &[short.as_str()], 1)
            .unwrap()[0]
            .outcome
            .is_accept());
    }

    #[test]
    fn more_workers_than_inputs_is_fine() {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck(4);
        let sigma = engine.get_or_compile(&spec).unwrap().alphabet().clone();
        let inputs = vec![sigma.parse_str("()").unwrap()];
        let reports = engine.parse_many(&spec, &inputs, 64).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].outcome.is_accept());
        assert!(engine.parse_many(&spec, &[], 8).unwrap().is_empty());
    }
}
