//! # lambek-lex — certified lexing for raw-text pipelines
//!
//! Every parser backend in this workspace consumes a pre-symbolized
//! `GString`; this crate supplies the layer in front: a [`LexSpec`] of
//! prioritized token rules (plus skip rules for whitespace/comments)
//! compiled through the existing verified constructions — Thompson
//! (Construction 4.11) per rule, a tagged union NFA, tagged Rabin–Scott
//! determinization (Construction 4.10) and tag-refined minimization —
//! into a **tagged-accept DFA**: one dense-table automaton whose accept
//! states also say *which* rule matched, ties broken by rule priority.
//!
//! On top of the automaton sit a maximal-munch driver (one
//! left-to-right pass with last-accept backtracking, one-shot via
//! [`LexAutomaton::lex_raw`] or push-mode via [`LexStream`]) and the
//! [`CertifiedLexer`], which restores the paper's
//! intrinsic-verification contract at the new subsystem boundary: every
//! emitted [`TokenStream`] is re-validated — lexeme spans must tile the
//! raw input exactly, and each lexeme is independently re-matched
//! against its rule's regex by the Brzozowski-derivative checker. Since
//! PR 6 the re-validation is *incremental*: a [`LexCertifier`] carries
//! the tiling cursor as a running invariant and discharges membership
//! per token by walking per-rule derivative tables built when the
//! lexer compiles, so certification costs O(lexeme) at each munch
//! boundary instead of a second whole-input pass (`lex_full` keeps the
//! old pass as the differential reference). The certified token-level
//! `GString` then flows into the workspace's certified LR backend,
//! giving raw-text → certified parse tree end to end;
//! `lambek-engine` packages that composition as `lexed_cfg` pipelines.
//!
//! ```
//! use lambek_lex::demo::{arith_spec, arith_token_cfg};
//! use lambek_lex::CertifiedLexer;
//! use lambek_lr::CertifiedLrParser;
//!
//! let lexer = CertifiedLexer::compile(arith_spec()).unwrap();
//! let parser = CertifiedLrParser::compile(&arith_token_cfg()).unwrap();
//! let out = lexer.lex("12 + (345 + 6)").unwrap();
//! let tokens = out.tokens().expect("lexes");
//! let log = parser
//!     .parse(tokens.yield_string())
//!     .unwrap()
//!     .accepted()
//!     .cloned()
//!     .expect("parses");
//! // Intrinsic at both layers: the tree's yield is the token string,
//! // and the tokens' spans tile the raw text.
//! assert_eq!(&log.to_parse_tree().flatten(), tokens.yield_string());
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod certified;
pub mod compile;
pub mod demo;
pub mod driver;
pub mod probes;
pub mod spec;

pub use certified::{
    CertifiedLexer, LexCertifier, LexCertifyError, LexedOutcome, StateBudgetExceeded,
    MAX_CERTIFIER_STATES,
};
pub use compile::LexAutomaton;
pub use driver::{
    CharwiseLexemes, LexError, LexStream, Lexemes, MunchMemoShed, RawLexeme, RawLexemes, Span,
    Token, TokenStream, MAX_MUNCH_MEMO_BYTES,
};
pub use probes::LexProbes;
pub use spec::{class, literal, plus, LexRule, LexSpec, LexSpecBuilder, SpecError};
