//! A grammar with LALR(1) conflicts is refused at compile time on both
//! front doors — grammar text (`compile_text`) and Rust-built specs
//! (`PipelineSpec::lexed_cfg(..).compile()` and every engine entrance
//! that compiles through the cache) — and is never cached. Each test runs
//! on a 256 KiB-stack thread: no request may reach a parser whose work
//! or stack depth grows with an ambiguous grammar's inputs.

use lambek_engine::{Engine, EngineError, FrontendReport, PipelineSpec};

/// `1+1+…+1` is ambiguous under this grammar: `E '+' E` associates
/// either way, so the LALR(1) table has a shift/reduce conflict on `+`.
const PROBE: &str = "token N = '1' ; E ::= E '+' E | N ;";

fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic, no overflow");
}

/// The probe grammar as a Rust-built spec, elaborated by the frontend.
fn probe_spec() -> PipelineSpec {
    let ast = lambek_frontend::parse_text(PROBE).expect("parses");
    let elab = lambek_frontend::elaborate(PROBE, &ast).expect("elaborates");
    PipelineSpec::lexed_cfg("probe", elab.spec, elab.cfg)
}

#[test]
fn the_text_door_refuses_with_source_spans() {
    on_small_stack(|| {
        let engine = Engine::new();
        let first = engine.compile_text(PROBE).expect_err("conflicted");
        let FrontendReport::Conflicts(report) = &first else {
            panic!("expected a conflict report, got {first:?}");
        };
        assert!(!report.report.conflicts.is_empty());
        assert!(!report.sites.is_empty());
        for site in &report.sites {
            assert!(site.span.end > site.span.start, "{site:?}");
            assert_eq!(&PROBE[site.span.start..site.span.start + 1], "E");
        }
        // A resubmit runs the full path again and reports the same.
        let entries = engine.stats().entries;
        let again = engine.compile_text(PROBE).expect_err("conflicted");
        assert_eq!(again, first);
        assert_eq!(engine.stats().entries, entries);
        assert_eq!(entries, 0);
    });
}

#[test]
fn the_spec_door_refuses_with_the_conflict_report() {
    on_small_stack(|| {
        let spec = probe_spec();
        let Err(EngineError::Compile(message)) = spec.compile() else {
            panic!("a conflicted grammar must not compile");
        };
        assert!(message.contains("not LALR(1)"), "{message}");

        let engine = Engine::new();
        let mut errors = Vec::new();
        for _ in 0..2 {
            let input = "1+".repeat(1_599) + "1";
            match engine.parse_many_str(&spec, &[input.as_str(), "1+1"], 2) {
                Err(e @ EngineError::Compile(_)) => errors.push(e),
                other => panic!("expected a compile error, got {other:?}"),
            }
            match engine.stream(&spec) {
                Err(e @ EngineError::Compile(_)) => errors.push(e),
                Err(e) => panic!("expected a compile error, got {e:?}"),
                Ok(_) => panic!("a conflicted grammar must not stream"),
            }
        }
        assert!(
            errors
                .iter()
                .all(|e| *e == EngineError::Compile(message.clone())),
            "every entrance reports the same refusal"
        );
        assert_eq!(engine.stats().entries, 0, "nothing is cached");
    });
}
