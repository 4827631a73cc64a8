//! # lambekd — Dependent Lambek Calculus in Rust (workspace facade)
//!
//! A reproduction of *Intrinsic Verification of Parsers and Formal
//! Grammar Theory in Dependent Lambek Calculus* (Schaefer, Varner,
//! Azevedo de Amorim, New — PLDI 2025). This crate re-exports the
//! workspace members; see the individual crates for the full story:
//!
//! * [`core`] (`lambek-core`) — grammars as linear types, parse
//!   transformers, the formal grammar theory of §4, and the deep syntax
//!   with its ordered-linear type checker;
//! * [`automata`] (`lambek-automata`) — NFAs/DFAs with trace grammars,
//!   determinization, the counter and lookahead automata;
//! * [`regex`] (`regex-grammars`) — the verified regex parser pipeline
//!   (Corollary 4.12) plus the derivative baseline;
//! * [`cfg`](mod@cfg) (`lambek-cfg`) — context-free grammars: Dyck (Theorem 4.13),
//!   arithmetic expressions (Theorem 4.14), FIRST/FOLLOW analysis, and an
//!   Earley baseline with explicit ambiguity reporting;
//! * [`lr`] (`lambek-lr`) — certified LR(1)/LALR parsing for the
//!   deterministic fragment: dense ACTION/GOTO tables, structured
//!   conflict reports, and parse trees re-validated by the core checker;
//! * [`lex`] (`lambek-lex`) — certified lexing: prioritized token rules
//!   compiled to a tagged-accept DFA, a maximal-munch driver with
//!   last-accept backtracking, and token streams re-validated (span
//!   tiling + independent derivative re-matching) at the boundary;
//! * [`turing`] (`lambek-turing`) — unrestricted grammars via `Reify`
//!   (Construction 4.15);
//! * [`obs`] (`lambek-obs`) — observability primitives: mergeable
//!   latency histograms, atomic counters/gauges, a metrics registry
//!   with Prometheus/JSON encoders, and per-request stage traces;
//! * [`engine`] (`lambek-engine`) — the serving layer: a compile-once
//!   pipeline cache, batch parsing over a persistent worker pool, push-mode
//!   streaming for DFA-backed parsers, and the metrics/tracing surface
//!   (`Engine::metrics_text`, `Engine::recent_traces`);
//! * [`frontend`] (`lambek-frontend`) — the grammar language: BNF-style
//!   productions plus prioritized token rules as *text*, parsed by a
//!   self-hosted bootstrap pipeline (the meta grammar is itself served
//!   through the certified lex + LALR machinery), elaborated into a
//!   validated lexer/grammar pair with span-carrying diagnostics, and
//!   compiled into the engine cache via `Engine::compile_text`.
//!
//! See `ARCHITECTURE.md` at the workspace root for the pipeline diagram
//! and the complete theorem ↔ module map.
//!
//! # Quickstart
//!
//! The paper's running example through the facade: compile the verified
//! regex parser of Corollary 4.12 for `(a*b)|c` and parse a string. The
//! returned tree is intrinsically verified — its yield *is* the input.
//!
//! ```
//! use lambekd::core::alphabet::Alphabet;
//! use lambekd::regex::ast::parse_regex;
//! use lambekd::regex::pipeline::RegexParser;
//!
//! let sigma = Alphabet::abc();
//! let re = parse_regex(&sigma, "(a*b)|c").unwrap();
//! let parser = RegexParser::compile(&sigma, re).unwrap();
//!
//! let w = sigma.parse_str("aab").unwrap();
//! let outcome = parser.parse(&w).unwrap();
//! let tree = outcome.accepted().expect("aab matches (a*b)|c");
//! assert_eq!(tree.flatten(), w);
//!
//! let bad = sigma.parse_str("ba").unwrap();
//! assert!(!parser.parse(&bad).unwrap().is_accept());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use lambek_automata as automata;
pub use lambek_cfg as cfg;
pub use lambek_core as core;
pub use lambek_engine as engine;
pub use lambek_frontend as frontend;
pub use lambek_lex as lex;
pub use lambek_lr as lr;
pub use lambek_obs as obs;
pub use lambek_turing as turing;
pub use regex_grammars as regex;
