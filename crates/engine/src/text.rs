//! Text submissions: [`Engine::compile_text`] serves the self-hosted
//! grammar frontend (`lambek-frontend`) through the engine's pipeline
//! cache.
//!
//! A submitted text is parsed by the frontend's process-wide bootstrap
//! pipeline — the grammar language's own certified lexer and LALR
//! parser, compiled once per process and never a cache entry — through
//! [`parse_text`], the same meta parse every caller runs. It is then
//! elaborated into a validated lexer + grammar pair, gated by the
//! caller's [`Budgets`], and finally compiled-or-fetched through the
//! cache. Because the cache key is interned from the elaborated spec's
//! *content*, two textually different but structurally equal
//! submissions share one compiled pipeline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lambek_frontend::{
    annotate_conflicts, elaborate, parse_text, probes, BudgetExceeded, BudgetKind, Budgets,
    Elaborated, FrontendReport,
};
use lambek_obs::{Stage, Trace};

use crate::pipeline::CompileFailure;
use crate::{CompiledPipeline, Engine, PipelineSpec};

/// Options for [`Engine::compile_text_with`].
#[derive(Debug, Clone, Default)]
pub struct CompileTextOptions {
    /// Compile-time budgets (production count, LALR states, deadline).
    /// Certifier derivative tables have a fixed cap of their own
    /// ([`lambek_lex::MAX_CERTIFIER_STATES`] state units), shed as
    /// [`BudgetKind::States`] too.
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
    /// bootstrap parse ([`parse_text`]), elaboration, budget gates, then
    /// compile-or-fetch of the user pipeline from the engine cache.
    ///
    /// The deadline is checked after elaboration and again after the
    /// compile; the production budget before the compile, the state
    /// budget after it.
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
        probes::note_text();
        self.compile_text_stages(text, options)
            .inspect_err(|report| match report {
                FrontendReport::Errors(_) => probes::note_elab_failure(),
                FrontendReport::Conflicts(_) => probes::note_conflict_reject(),
                FrontendReport::Budget(_) => probes::note_budget_shed(),
                FrontendReport::Internal(_) => {}
            })
    }

    /// [`Engine::compile_text_with`]'s stages, without the probes.
    fn compile_text_stages(
        &self,
        text: &str,
        options: &CompileTextOptions,
    ) -> Result<PipelineHandle, FrontendReport> {
        let started = Instant::now();
        let budgets = &options.budgets;
        let ast = parse_text(text)?;
        let frontend_time = started.elapsed();

        let t_elab = Instant::now();
        let Elaborated {
            spec,
            cfg,
            start_name,
            num_productions,
            rule_spans,
            ..
        } = elaborate(text, &ast).map_err(FrontendReport::Errors)?;
        let elaborate_time = t_elab.elapsed();
        if num_productions > budgets.max_productions {
            return Err(FrontendReport::Budget(BudgetExceeded {
                kind: BudgetKind::Productions,
                limit: budgets.max_productions as u64,
                actual: num_productions as u64,
            }));
        }
        check_deadline(started, budgets)?;

        let spec = PipelineSpec::lexed_cfg(format!("text:{start_name}"), spec, cfg);
        let (pipeline, lookup, compile) = match self.get_or_compile_timed(&spec) {
            Ok(compiled) => compiled,
            Err(CompileFailure::Shed(shed)) => {
                return Err(FrontendReport::Budget(BudgetExceeded {
                    kind: BudgetKind::States,
                    limit: shed.cap as u64,
                    actual: shed.needed as u64,
                }));
            }
            Err(CompileFailure::Error(e)) => {
                return Err(FrontendReport::Internal(format!("user pipeline: {e}")));
            }
        };
        let cfg_backend = pipeline
            .lexed_backend()
            .expect("a text pipeline is a lexed-cfg pipeline")
            .cfg_backend();
        if let Some(report) = cfg_backend.conflicts() {
            if !options.allow_conflicts {
                return Err(FrontendReport::Conflicts(annotate_conflicts(
                    report.clone(),
                    &rule_spans,
                    text,
                )));
            }
        }
        if let Some(lr) = cfg_backend.lr() {
            let states = lr.table().num_states();
            if states > budgets.max_states {
                return Err(FrontendReport::Budget(BudgetExceeded {
                    kind: BudgetKind::States,
                    limit: budgets.max_states as u64,
                    actual: states as u64,
                }));
            }
        }
        check_deadline(started, budgets)?;

        if self.metrics.tracing {
            let mut trace = Trace::new(&spec.label(), 0, text.len());
            let mut at = Duration::ZERO;
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
            start: start_name,
            cache_hit: compile.is_none(),
        })
    }
}

/// Sheds a compile that has run past its [`Budgets::deadline`].
fn check_deadline(started: Instant, budgets: &Budgets) -> Result<(), FrontendReport> {
    let Some(deadline) = budgets.deadline else {
        return Ok(());
    };
    let elapsed = started.elapsed();
    if elapsed > deadline {
        return Err(FrontendReport::Budget(BudgetExceeded {
            kind: BudgetKind::Deadline,
            limit: deadline.as_micros() as u64,
            actual: elapsed.as_micros() as u64,
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, FrontendErrorKind, ObsConfig, StrOutcome};

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
    fn the_meta_pipeline_is_never_a_cache_entry() {
        let engine = Engine::new();
        engine.compile_text(ARITH).expect("arith compiles");
        let stats = engine.stats();
        assert_eq!(stats.entries, 1, "only the user pipeline is resident");
        assert_eq!(stats.compiles, 1, "only the user pipeline is compiled");
    }

    #[test]
    fn both_front_doors_report_syntax_errors_alike() {
        let engine = Engine::new();
        // A lexical error (an unterminated literal running to the end)
        // and a parse error (a declaration missing its `;`).
        let unlexable = format!("token A = '{}", "a".repeat(4096));
        for text in [unlexable.as_str(), "token A = 'a'\nS ::= A ;\n"] {
            let parsed = lambek_frontend::parse_text(text).expect_err("rejected");
            let compiled = engine.compile_text(text).expect_err("rejected");
            let (FrontendReport::Errors(p), FrontendReport::Errors(c)) = (&parsed, &compiled)
            else {
                panic!("expected diagnostics, got {parsed:?} and {compiled:?}");
            };
            assert_eq!(p.len(), 1);
            assert_eq!(p, c, "{text:.40?}");
            assert!(
                matches!(&p[0].kind, FrontendErrorKind::Syntax { .. }),
                "{:?}",
                p[0]
            );
        }
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

    #[test]
    fn an_oversized_certifier_table_is_shed_as_a_state_budget() {
        // "The 13th symbol from the end is an a": 2¹³ derivatives, more
        // state units than the certifier cap allows.
        let text = format!(
            "token LONG = ('a'|'b')* 'a' {};\nS ::= LONG ;\n",
            "('a'|'b') ".repeat(12)
        );
        let engine = Engine::new();
        match engine.compile_text(&text) {
            Err(FrontendReport::Budget(shed)) => {
                assert_eq!(shed.kind, BudgetKind::States);
                assert_eq!(shed.limit, lambek_lex::MAX_CERTIFIER_STATES as u64);
                assert!(shed.actual > shed.limit, "{shed}");
            }
            other => panic!("expected a state-budget shed, got {other:?}"),
        }
        assert_eq!(engine.stats().entries, 0, "nothing is resident");
        // The same spec through the spec-level API: a compile error
        // that names the rule and the cap.
        let ast = lambek_frontend::parse_text(&text).expect("parses");
        let elab = lambek_frontend::elaborate(&text, &ast).expect("elaborates");
        match PipelineSpec::lexed_cfg("long", elab.spec, elab.cfg).compile() {
            Err(crate::EngineError::Compile(m)) => {
                assert!(m.contains("\"LONG\"") && m.contains("65536"), "{m}");
            }
            other => panic!("expected a compile error, got {:?}", other.err()),
        }
    }
}
