//! # regex-grammars — verified regular-expression parsing in LambekD
//!
//! Regular expressions as linear types (§4.1 of the paper):
//!
//! * [`ast`] — the regex syntax, its reading as a grammar, and a
//!   concrete-syntax parser;
//! * [`derivative`] — Brzozowski derivatives, the unverified baseline the
//!   benchmarks compare against;
//! * [`deriv_table`] — the same derivatives, all computed up front
//!   into a dense table, fast enough to re-match every lexeme;
//! * [`thompson`] — Construction 4.11: regex → NFA with a *strong*
//!   equivalence between regex parses and accepting traces;
//! * [`pipeline`] — Corollary 4.12: the composed verified parser
//!   (Thompson, then Rabin–Scott, then the Theorem 4.9 trace parser,
//!   extended back along the equivalences with Lemma 4.8);
//! * [`gen`] — random regex generation.
//!
//! # Example
//!
//! ```
//! use lambek_core::alphabet::Alphabet;
//! use regex_grammars::ast::parse_regex;
//! use regex_grammars::pipeline::RegexParser;
//!
//! let sigma = Alphabet::abc();
//! let re = parse_regex(&sigma, "(a*b)|c")?;
//! let parser = RegexParser::compile(&sigma, re)?;
//! let w = sigma.parse_str("aab").unwrap();
//! let outcome = parser.parse(&w)?;
//! assert!(outcome.is_accept());
//! // The accepted tree is a parse of the *regex grammar* for exactly `w`.
//! assert_eq!(outcome.accepted().unwrap().flatten(), w);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod deriv_table;
pub mod derivative;
pub mod gen;
pub mod pipeline;
pub mod thompson;
