//! Text submissions: [`Engine::compile_text`] serves the self-hosted
//! grammar frontend (`lambek-frontend`) through the engine's pipeline
//! cache.
//!
//! The bootstrap meta pipeline — the grammar language's own lexer and
//! LALR parser — is itself an ordinary cached [`PipelineSpec`], so the
//! first text submission compiles it once and every later submission
//! reuses the shared `Arc` like any other pipeline. A submitted text is
//! then parsed *by that pipeline* (certified lexing + certified LR
//! drive), elaborated into a validated lexer + grammar pair, gated by
//! the caller's [`Budgets`], and finally compiled-or-fetched through
//! the same cache. Because the cache key is interned from the
//! elaborated spec's *content*, two textually different but
//! structurally equal submissions share one compiled pipeline.

use std::sync::Arc;
use std::time::Instant;

use lambek_frontend::bootstrap::ast_from_tree;
use lambek_frontend::{
    annotate_conflicts, elaborate, meta_cfg, meta_spec, probes, BudgetExceeded, BudgetKind,
    Budgets, FrontendError, FrontendErrorKind, FrontendReport,
};
use lambek_lex::Span;
use lambek_obs::{Recorder, Stage, Trace};

use crate::{CompiledPipeline, Engine, PipelineSpec, StrOutcome};

/// Options for [`Engine::compile_text_with`].
#[derive(Debug, Clone, Default)]
pub struct CompileTextOptions {
    /// Compile-time budgets (production count, LALR states, deadline).
    pub budgets: Budgets,
    /// Serve grammars with LALR conflicts through the Earley fallback
    /// instead of rejecting them (default `false`: conflicts come back
    /// as a structured [`FrontendReport::Conflicts`] with source
    /// spans).
    pub allow_conflicts: bool,
}

/// A successfully compiled text submission: the cached pipeline plus
/// the submission's identity.
#[derive(Debug, Clone)]
pub struct PipelineHandle {
    /// The spec the pipeline is cached under (its [`PipelineSpec::key`]
    /// is the interned structural identity of the elaborated spec).
    pub spec: PipelineSpec,
    /// The compiled pipeline, shared with every structurally equal
    /// submission.
    pub pipeline: Arc<CompiledPipeline>,
    /// The user grammar's start nonterminal.
    pub start: String,
    /// `true` when a structurally equal spec was already resident — no
    /// compilation happened for this call.
    pub cache_hit: bool,
}

impl Engine {
    /// The spec of the bootstrap meta pipeline (the grammar language's
    /// own lexer + LALR parser), served through the cache like any
    /// other pipeline.
    pub fn frontend_meta_spec() -> PipelineSpec {
        PipelineSpec::lexed_cfg("grammar-frontend", meta_spec(), meta_cfg())
    }

    /// Compiles a grammar-language text into a cached pipeline with
    /// default [`CompileTextOptions`]. See
    /// [`Engine::compile_text_with`].
    ///
    /// # Errors
    ///
    /// A structured [`FrontendReport`]: span-carrying diagnostics, an
    /// annotated conflict report, or a shed budget.
    pub fn compile_text(&self, text: &str) -> Result<PipelineHandle, FrontendReport> {
        self.compile_text_with(text, &CompileTextOptions::default())
    }

    /// Compiles a grammar-language text end to end: self-hosted
    /// bootstrap parse (through the cached meta pipeline), elaboration,
    /// budget gates, then compile-or-fetch of the user pipeline from
    /// the engine cache.
    ///
    /// On a tracing engine ([`crate::ObsConfig::tracing`]) every
    /// successful compile records a trace with `frontend`, `elaborate`,
    /// `cache` and (on a miss) `compile` stage spans.
    ///
    /// A conflicted grammar is rejected by default but stays resident
    /// in its Earley-fallback form, so re-submitting the same text (or
    /// retrying with `allow_conflicts`) does not recompile it.
    ///
    /// # Errors
    ///
    /// A structured [`FrontendReport`]: span-carrying diagnostics, an
    /// annotated conflict report, or a shed budget.
    pub fn compile_text_with(
        &self,
        text: &str,
        options: &CompileTextOptions,
    ) -> Result<PipelineHandle, FrontendReport> {
        let started = Instant::now();
        probes::note_text();
        let budgets = &options.budgets;

        // ---- frontend: self-hosted parse of the submission ---------
        let t_front = Instant::now();
        let meta = self
            .get_or_compile(&Engine::frontend_meta_spec())
            .map_err(|e| FrontendReport::Internal(format!("meta pipeline: {e}")))?;
        let backend = meta
            .lexed_backend()
            .expect("the meta pipeline is a lexed-cfg pipeline");
        let outcome = backend
            .parse_str_tokens(text)
            .map_err(|e| FrontendReport::Internal(format!("bootstrap parse: {e}")))?;
        let ast = match outcome {
            StrOutcome::Accept { derivation, tokens } => {
                let tokens = tokens.expect("parse_str_tokens materializes the stream");
                ast_from_tree(text, &derivation.to_parse_tree(), &tokens).map_err(|e| {
                    probes::note_elab_failure();
                    FrontendReport::Errors(vec![e])
                })?
            }
            StrOutcome::RejectLex(e) => {
                probes::note_elab_failure();
                return Err(FrontendReport::Errors(vec![FrontendError::new(
                    FrontendErrorKind::Syntax {
                        message: e.to_string(),
                    },
                    Span {
                        start: e.at,
                        end: e.at,
                    },
                    text,
                )]));
            }
            StrOutcome::RejectParse { span, message, .. } => {
                probes::note_elab_failure();
                return Err(FrontendReport::Errors(vec![FrontendError::new(
                    FrontendErrorKind::Syntax { message },
                    span,
                    text,
                )]));
            }
        };
        let frontend_time = t_front.elapsed();

        // ---- elaborate + budget gates ------------------------------
        let t_elab = Instant::now();
        let elab = elaborate(text, &ast).map_err(|errors| {
            probes::note_elab_failure();
            FrontendReport::Errors(errors)
        })?;
        let elaborate_time = t_elab.elapsed();
        if elab.num_productions > budgets.max_productions {
            probes::note_budget_shed();
            return Err(FrontendReport::Budget(BudgetExceeded {
                kind: BudgetKind::Productions,
                limit: budgets.max_productions as u64,
                actual: elab.num_productions as u64,
            }));
        }
        if let Some(deadline) = budgets.deadline {
            let elapsed = started.elapsed();
            if elapsed > deadline {
                probes::note_budget_shed();
                return Err(FrontendReport::Budget(BudgetExceeded {
                    kind: BudgetKind::Deadline,
                    limit: deadline.as_micros() as u64,
                    actual: elapsed.as_micros() as u64,
                }));
            }
        }

        // ---- compile-or-fetch the user pipeline --------------------
        let spec = PipelineSpec::lexed_cfg(
            format!("text:{}", elab.start_name),
            elab.spec.clone(),
            elab.cfg.clone(),
        );
        let (pipeline, lookup, compile) = self
            .get_or_compile_timed(&spec)
            .map_err(|e| FrontendReport::Internal(format!("user pipeline: {e}")))?;
        let cfg_backend = pipeline
            .lexed_backend()
            .expect("a text pipeline is a lexed-cfg pipeline")
            .cfg_backend();
        if let Some(report) = cfg_backend.conflicts() {
            if !options.allow_conflicts {
                probes::note_conflict_reject();
                return Err(FrontendReport::Conflicts(annotate_conflicts(
                    report.clone(),
                    &elab,
                    text,
                )));
            }
        }
        if let Some(lr) = cfg_backend.lr() {
            let states = lr.table().num_states();
            if states > budgets.max_states {
                probes::note_budget_shed();
                return Err(FrontendReport::Budget(BudgetExceeded {
                    kind: BudgetKind::States,
                    limit: budgets.max_states as u64,
                    actual: states as u64,
                }));
            }
        }

        if self.metrics.tracing {
            let mut trace = Trace::new(&spec.label(), 0, text.len());
            let mut at = std::time::Duration::ZERO;
            for (stage, duration) in [
                (Stage::Frontend, Some(frontend_time)),
                (Stage::Elaborate, Some(elaborate_time)),
                (Stage::Cache, Some(lookup)),
                (Stage::Compile, compile),
            ] {
                if let Some(duration) = duration {
                    trace.record(stage, at, duration);
                    at += duration;
                }
            }
            trace.total = started.elapsed();
            self.metrics.traces.push(trace);
        }

        Ok(PipelineHandle {
            spec,
            pipeline,
            start: elab.start_name,
            cache_hit: compile.is_none(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, ObsConfig};

    const ARITH: &str = "token NUM = [0-9]+ ;\nskip WS = [ \\t\\n]+ ;\nstart Exp ;\nExp ::= Atom | Atom '+' Exp ;\nAtom ::= NUM | '(' Exp ')' ;\n";

    #[test]
    fn text_compiles_and_parses_through_the_cache() {
        let engine = Engine::new();
        let handle = engine.compile_text(ARITH).expect("arith compiles");
        assert_eq!(handle.start, "Exp");
        assert!(!handle.cache_hit);
        let backend = handle.pipeline.lexed_backend().expect("lexed");
        assert!(matches!(
            backend.parse_str("(1 + 2) + 34").expect("parses"),
            StrOutcome::Accept { .. }
        ));
        assert!(!matches!(
            backend.parse_str("(1 +").expect("parses"),
            StrOutcome::Accept { .. }
        ));
        // A textually different but structurally equal submission hits
        // the cache and shares the compiled pipeline.
        let reworded = ARITH.replace("Exp ::=", "Exp  ::="); // extra space
        let again = engine.compile_text(&reworded).expect("compiles");
        assert!(again.cache_hit);
        assert!(Arc::ptr_eq(&handle.pipeline, &again.pipeline));
    }

    #[test]
    fn text_traces_record_frontend_stages() {
        let engine = Engine::with_obs(
            CacheConfig::default(),
            ObsConfig {
                tracing: true,
                trace_ring: 8,
            },
        );
        engine.compile_text(ARITH).expect("compiles");
        let traces = engine.recent_traces();
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        assert!(trace.span_duration(Stage::Frontend).is_some());
        assert!(trace.span_duration(Stage::Elaborate).is_some());
        assert!(trace.span_duration(Stage::Compile).is_some());
    }

    #[test]
    fn bad_text_is_a_structured_report_not_a_panic() {
        let engine = Engine::new();
        match engine.compile_text("token = ;") {
            Err(FrontendReport::Errors(errors)) => {
                assert!(!errors.is_empty());
                assert!(errors[0].line >= 1);
            }
            other => panic!("expected diagnostics, got {other:?}"),
        }
        // Conflicted grammars come back as annotated conflict reports…
        let ambiguous = "token A = 'a' ;\nE ::= E E | A ;\n";
        match engine.compile_text(ambiguous) {
            Err(FrontendReport::Conflicts(report)) => {
                assert!(!report.sites.is_empty());
            }
            other => panic!("expected conflicts, got {other:?}"),
        }
        // …unless the caller opts into the Earley fallback.
        let opts = CompileTextOptions {
            allow_conflicts: true,
            ..CompileTextOptions::default()
        };
        let handle = engine
            .compile_text_with(ambiguous, &opts)
            .expect("Earley fallback serves conflicted grammars");
        assert!(handle
            .pipeline
            .lexed_backend()
            .expect("lexed")
            .cfg_backend()
            .conflicts()
            .is_some());
    }
}
