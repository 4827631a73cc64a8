//! Text submissions: [`Engine::compile_text`] serves the self-hosted
//! grammar frontend (`lambek-frontend`) through the engine's pipeline
//! cache.
//!
//! The lookup has two levels. First the cache's text map: a text that
//! is byte-for-byte one already resolved to a resident pipeline is
//! answered by one hash of its bytes — no meta parse, no elaboration,
//! no interning. Every check that depends on the caller's budgets still
//! runs on such a hit: the production budget (counted from the resident
//! grammar), the state budget (read from its LR table) and the
//! deadline. The request contract needs no new trust for this: the
//! pipeline was compiled from the very same bytes, and every token and
//! tree it serves is still certified at request time.
//!
//! On a text miss the submission is parsed by the frontend's
//! process-wide bootstrap pipeline — the grammar language's own
//! certified lexer and LALR parser, compiled once per process and never
//! a cache entry — through [`parse_text`], the same meta parse every
//! caller runs. It is then elaborated into a validated lexer + grammar
//! pair, gated by the caller's [`Budgets`], and finally
//! compiled-or-fetched through the structural cache, which then records
//! the text in the text map. Because the structural key is interned from
//! the elaborated spec's *content*, two textually different but
//! structurally equal submissions share one compiled pipeline. A grammar
//! that is not LALR(1) is refused at that compile, with the conflicts
//! annotated by the text's source spans, and never becomes resident: no
//! text hit can be a conflicted grammar.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lambek_cfg::grammar::Cfg;
use lambek_frontend::{
    annotate_conflicts, elaborate, parse_text, probes, BudgetExceeded, BudgetKind, Budgets,
    Elaborated, FrontendReport,
};
use lambek_obs::{Stage, Trace};

use crate::pipeline::CompileFailure;
use crate::{CfgBackend, CompiledPipeline, Engine, PipelineSpec};

/// Options for [`Engine::compile_text_with`].
#[derive(Debug, Clone, Default)]
pub struct CompileTextOptions {
    /// Compile-time budgets (production count, LALR states, deadline).
    /// Certifier derivative tables have a fixed cap of their own
    /// ([`lambek_lex::MAX_CERTIFIER_STATES`] state units), shed as
    /// [`BudgetKind::States`] too.
    pub budgets: Budgets,
}

/// A successfully compiled text submission: the cached pipeline plus
/// the submission's identity. The pipeline's grammar is LALR(1) — a
/// conflicted one comes back as [`FrontendReport::Conflicts`] instead —
/// so every request it serves runs the certified LR driver.
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
    /// `true` when no compilation happened for this call: either the
    /// exact text was already resident (a text-map hit, which also skips
    /// the meta parse and elaboration) or a structurally equal spec was.
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

    /// Compiles a grammar-language text end to end, in two lookups.
    ///
    /// 1. The text map: a byte-identical resubmit of a resident text is
    ///    served from one hash of its bytes, after the production
    ///    budget (counted from the resident grammar), the state budget
    ///    (from its LR table) and the deadline — the checks that depend
    ///    on `options`. A text-map hit counts as a cache hit in
    ///    [`Engine::stats`].
    /// 2. The full path: self-hosted bootstrap parse ([`parse_text`]),
    ///    elaboration, budget gates, then compile-or-fetch of the user
    ///    pipeline from the structural cache, which records the text in
    ///    the text map. The deadline is checked after elaboration and
    ///    again after the compile; the production budget before the
    ///    compile, the state budget after it.
    ///
    /// On a tracing engine ([`crate::ObsConfig::tracing`]) every
    /// successful compile records a trace: a text-map hit has a `cache`
    /// span only; the full path has `frontend`, `elaborate`, `cache` and
    /// (on a miss) `compile` spans.
    ///
    /// A grammar that is not LALR(1) is refused with
    /// [`FrontendReport::Conflicts`] and is not cached, so each
    /// submission of it runs the full path and returns the same report.
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
        if let Some(handle) = self.resident_text(text, options, started)? {
            return Ok(handle);
        }
        let budgets = &options.budgets;
        let ast = parse_text(text)?;
        let frontend_time = started.elapsed();

        let t_elab = Instant::now();
        let Elaborated {
            spec,
            cfg,
            start_name,
            rule_spans,
            ..
        } = elaborate(text, &ast).map_err(FrontendReport::Errors)?;
        let elaborate_time = t_elab.elapsed();
        check_productions(&cfg, budgets)?;
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
            Err(CompileFailure::Conflicts(report)) => {
                return Err(FrontendReport::Conflicts(annotate_conflicts(
                    report,
                    &rule_spans,
                    text,
                )));
            }
            Err(CompileFailure::Error(e)) => {
                return Err(FrontendReport::Internal(format!("user pipeline: {e}")));
            }
        };
        // A no-op if a concurrent insert has evicted the entry already.
        self.lock_cache().alias(text, &spec, &start_name);
        check_states(text_backend(&pipeline), budgets)?;
        check_deadline(started, budgets)?;

        self.trace_text(
            &spec,
            text,
            started,
            &[
                (Stage::Frontend, Some(frontend_time)),
                (Stage::Elaborate, Some(elaborate_time)),
                (Stage::Cache, Some(lookup)),
                (Stage::Compile, compile),
            ],
        );
        Ok(PipelineHandle {
            spec,
            pipeline,
            start: start_name,
            cache_hit: compile.is_none(),
        })
    }

    /// The text-map lookup of [`Engine::compile_text_with`]: `Ok(None)`
    /// on a text miss sends the call down the full path. The checks run
    /// in the full path's order, and the entry's credit is refreshed and
    /// the hit counted where the full path's structural probe would do
    /// both, so a shed leaves the cache as a first submission would.
    fn resident_text(
        &self,
        text: &str,
        options: &CompileTextOptions,
        started: Instant,
    ) -> Result<Option<PipelineHandle>, FrontendReport> {
        let budgets = &options.budgets;
        let mut cache = self.lock_cache();
        let Some(handle) = cache.peek_text(text) else {
            return Ok(None);
        };
        let cfg_backend = text_backend(&handle.pipeline);
        check_productions(cfg_backend.cfg(), budgets)?;
        check_deadline(started, budgets)?;
        cache.get(&handle.spec);
        drop(cache);
        let lookup = started.elapsed();
        self.metrics.hits.inc();
        self.metrics.hit_lat.record(lookup);
        check_states(cfg_backend, budgets)?;
        check_deadline(started, budgets)?;

        self.trace_text(&handle.spec, text, started, &[(Stage::Cache, Some(lookup))]);
        Ok(Some(handle))
    }

    /// On a tracing engine, records a text submission's trace: `spans`
    /// laid end to end from `started`, skipping the stages that did not
    /// run.
    fn trace_text(
        &self,
        spec: &PipelineSpec,
        text: &str,
        started: Instant,
        spans: &[(Stage, Option<Duration>)],
    ) {
        if !self.metrics.tracing {
            return;
        }
        let mut trace = Trace::new(&spec.label(), 0, text.len());
        let mut at = Duration::ZERO;
        for &(stage, duration) in spans {
            if let Some(duration) = duration {
                trace.record(stage, at, duration);
                at += duration;
            }
        }
        trace.total = started.elapsed();
        self.metrics.traces.push(trace);
    }
}

/// The CFG backend behind a text pipeline.
fn text_backend(pipeline: &CompiledPipeline) -> &CfgBackend {
    pipeline
        .lexed_backend()
        .expect("a text pipeline is a lexed-cfg pipeline")
        .cfg_backend()
}

/// Sheds a grammar with more productions than [`Budgets::max_productions`].
fn check_productions(cfg: &Cfg, budgets: &Budgets) -> Result<(), FrontendReport> {
    let num_productions: usize = (0..cfg.num_nonterminals())
        .map(|n| cfg.alternatives(n).len())
        .sum();
    if num_productions > budgets.max_productions {
        return Err(FrontendReport::Budget(BudgetExceeded {
            kind: BudgetKind::Productions,
            limit: budgets.max_productions as u64,
            actual: num_productions as u64,
        }));
    }
    Ok(())
}

/// Sheds an LR table with more states than [`Budgets::max_states`].
fn check_states(cfg_backend: &CfgBackend, budgets: &Budgets) -> Result<(), FrontendReport> {
    let states = cfg_backend.lr.table().num_states();
    if states > budgets.max_states {
        return Err(FrontendReport::Budget(BudgetExceeded {
            kind: BudgetKind::States,
            limit: budgets.max_states as u64,
            actual: states as u64,
        }));
    }
    Ok(())
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
    use crate::cache::MAX_ALIAS_TEXT_BYTES;
    use crate::{CacheConfig, FrontendErrorKind, ObsConfig, StrOutcome};

    const AMBIGUOUS: &str = "token A = 'a' ;\nE ::= E E | A ;\n";

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
        // Conflicted grammars come back as annotated conflict reports,
        // and nothing is left resident.
        match engine.compile_text(AMBIGUOUS) {
            Err(FrontendReport::Conflicts(report)) => {
                assert!(!report.sites.is_empty());
            }
            other => panic!("expected conflicts, got {other:?}"),
        }
        assert_eq!(engine.stats().entries, 0);
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

    fn tracing_engine(config: CacheConfig) -> Engine {
        Engine::with_obs(
            config,
            ObsConfig {
                tracing: true,
                trace_ring: 8,
            },
        )
    }

    /// Whether the engine's last compile was answered by the text map:
    /// its trace has a `cache` span and no `frontend` span.
    fn last_was_text_hit(engine: &Engine) -> bool {
        let trace = &engine.recent_traces()[0];
        trace.span_duration(Stage::Cache).is_some()
            && trace.span_duration(Stage::Frontend).is_none()
    }

    #[test]
    fn a_resident_text_is_answered_by_the_text_map() {
        let engine = tracing_engine(CacheConfig::default());
        let first = engine.compile_text(ARITH).expect("compiles");
        assert!(!last_was_text_hit(&engine));
        let again = engine.compile_text(ARITH).expect("compiles");
        assert!(last_was_text_hit(&engine));
        assert!(again.cache_hit);
        assert!(Arc::ptr_eq(&first.pipeline, &again.pipeline));
        assert_eq!(again.start, first.start);
        assert_eq!(again.spec.label(), first.spec.label());
        let trace = &engine.recent_traces()[0];
        assert_eq!(
            trace.spans.len(),
            1,
            "a text hit records only its cache span"
        );
        // The text hit counts as a cache hit: one miss, one hit.
        let stats = engine.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.hit_latency.count(), 1);
    }

    #[test]
    fn budgets_shed_a_text_hit_as_they_shed_a_first_submission() {
        let warm = Engine::new();
        warm.compile_text(ARITH).expect("compiles");
        for budgets in [
            Budgets {
                max_productions: 2,
                ..Budgets::default()
            },
            Budgets {
                max_states: 3,
                ..Budgets::default()
            },
            Budgets {
                deadline: Some(Duration::ZERO),
                ..Budgets::default()
            },
        ] {
            let options = CompileTextOptions { budgets };
            let hit = warm.compile_text_with(ARITH, &options).expect_err("shed");
            let fresh = Engine::new()
                .compile_text_with(ARITH, &options)
                .expect_err("shed");
            match (&hit, &fresh) {
                (FrontendReport::Budget(h), FrontendReport::Budget(f)) => {
                    assert_eq!(h.kind, f.kind);
                    if h.kind != BudgetKind::Deadline {
                        assert_eq!(h, f);
                    }
                }
                other => panic!("expected two budget sheds, got {other:?}"),
            }
        }
        // The shed did not unseat the resident pipeline.
        assert!(warm.compile_text(ARITH).expect("compiles").cache_hit);
    }

    #[test]
    fn a_resubmitted_conflicted_text_is_refused_with_a_first_submissions_spans() {
        let engine = Engine::new();
        let first = engine.compile_text(AMBIGUOUS).expect_err("conflicted");
        let again = engine.compile_text(AMBIGUOUS).expect_err("conflicted");
        let fresh = Engine::new()
            .compile_text(AMBIGUOUS)
            .expect_err("conflicted");
        assert!(matches!(first, FrontendReport::Conflicts(_)), "{first:?}");
        assert_eq!(again, first);
        assert_eq!(again, fresh);
        // Never resident, so the resubmit took the full path again.
        let stats = engine.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (0, 0, 2));
        assert_eq!(engine.lock_cache().text_aliases(), 0);
    }

    #[test]
    fn clear_drops_the_text_aliases() {
        let engine = Engine::new();
        engine.compile_text(ARITH).expect("compiles");
        assert_eq!(engine.lock_cache().text_aliases(), 1);
        engine.clear();
        assert_eq!(engine.lock_cache().text_aliases(), 0);
        let again = engine.compile_text(ARITH).expect("compiles");
        assert!(!again.cache_hit, "a cleared text compiles again");
        assert_eq!(engine.stats().compiles, 2);
    }

    #[test]
    fn each_entry_keeps_only_its_newest_wording() {
        let engine = tracing_engine(CacheConfig::default());
        let variants: Vec<String> = (0..24).map(|i| format!("# wording {i}\n{ARITH}")).collect();
        for text in &variants {
            engine.compile_text(text).expect("compiles");
        }
        assert_eq!(engine.stats().compiles, 1, "one structural entry");
        assert_eq!(engine.lock_cache().text_aliases(), 1);
        // The newest wording is a text hit; an older one takes the full
        // path to a structural hit, and becomes the alias in turn.
        let newest = &variants[variants.len() - 1];
        assert!(engine.compile_text(newest).expect("compiles").cache_hit);
        assert!(last_was_text_hit(&engine));
        let oldest = engine.compile_text(&variants[0]).expect("compiles");
        assert!(oldest.cache_hit);
        assert!(!last_was_text_hit(&engine));
        assert_eq!(engine.lock_cache().text_aliases(), 1);
        engine.compile_text(&variants[0]).expect("compiles");
        assert!(last_was_text_hit(&engine));
    }

    #[test]
    fn a_long_text_is_never_pinned_by_the_text_map() {
        let engine = tracing_engine(CacheConfig::default());
        let padded = format!("# {}\n{ARITH}", "x".repeat(MAX_ALIAS_TEXT_BYTES));
        let first = engine.compile_text(&padded).expect("compiles");
        assert_eq!(engine.lock_cache().text_aliases(), 0);
        let again = engine.compile_text(&padded).expect("compiles");
        assert!(again.cache_hit, "the structural key still serves it");
        assert!(!last_was_text_hit(&engine));
        assert!(Arc::ptr_eq(&first.pipeline, &again.pipeline));
        assert_eq!(engine.lock_cache().text_aliases(), 0);
    }

    #[test]
    fn a_shed_text_hit_neither_counts_nor_refreshes_its_entry() {
        let engine = Engine::new();
        engine.compile_text(ARITH).expect("compiles");
        let probes = |engine: &Engine| {
            let stats = engine.stats();
            (stats.hits, stats.misses, engine.lock_cache().touches())
        };
        // A production shed happens before any probe, as on the full path.
        let shed = CompileTextOptions {
            budgets: Budgets {
                max_productions: 2,
                ..Budgets::default()
            },
        };
        let before = probes(&engine);
        engine.compile_text_with(ARITH, &shed).expect_err("shed");
        assert_eq!(probes(&engine), before);
        // A refused conflicted text probes once: the full path's lookup,
        // a miss.
        let (hits, misses, touches) = probes(&engine);
        engine.compile_text(AMBIGUOUS).expect_err("conflicted");
        assert_eq!(probes(&engine), (hits, misses + 1, touches + 1));
    }
}
