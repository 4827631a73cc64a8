//! # lambek-core — Dependent Lambek Calculus in Rust
//!
//! A reproduction of *Intrinsic Verification of Parsers and Formal Grammar
//! Theory in Dependent Lambek Calculus* (Schaefer, Varner, Azevedo de
//! Amorim, New — PLDI 2025). Linear types are formal grammars; linear
//! terms are parse transformers; a parser written as a term of type
//! `String ⊸ A ⊕ A¬` is intrinsically verified to return only valid parse
//! trees of its actual input.
//!
//! The crate has three layers, mirroring the paper:
//!
//! 1. **Denotational** ([`grammar`]): grammars as functions from strings
//!    to sets of parse trees (Definition 5.1), with recognition, bounded
//!    enumeration and validation. This is the model of §5.
//! 2. **Transformers** ([`transform`], [`theory`]): yield-preserving
//!    functions between parse sets (Definition 5.2), a combinator library
//!    in the style of the paper's Agda shallow embedding, and the formal
//!    grammar theory of §4 — equivalences, unambiguity, disjointness,
//!    verified parsers.
//! 3. **Syntax** ([`syntax`], [`check`], [`eval`]): a deep embedding of
//!    LambekD's terms and types with an ordered-linear type checker (no
//!    weakening, contraction or exchange — Fig. 9) and an evaluator
//!    interpreting well-typed terms as parse transformers.
//!
//! All three layers run on a hash-consed core ([`intern`]): types, terms
//! and grammar expressions are deduplicated into a global arena at
//! construction, so structural equality has a pointer fast path and cache
//! keys are small copyable ids.
//!
//! # Quickstart
//!
//! ```
//! use lambek_core::alphabet::Alphabet;
//! use lambek_core::grammar::compile::CompiledGrammar;
//! use lambek_core::grammar::expr::{alt, chr, star, tensor};
//!
//! // The paper's running example: ('a'* ⊗ 'b') ⊕ 'c' over Σ = {a,b,c}.
//! let sigma = Alphabet::abc();
//! let (a, b, c) = (
//!     sigma.symbol("a").unwrap(),
//!     sigma.symbol("b").unwrap(),
//!     sigma.symbol("c").unwrap(),
//! );
//! let grammar = alt(tensor(star(chr(a)), chr(b)), chr(c));
//! let compiled = CompiledGrammar::new(&grammar);
//!
//! let w = sigma.parse_str("aab").unwrap();
//! assert!(compiled.recognizes(&w));
//! // Exactly one parse tree — the grammar is unambiguous here.
//! let forest = compiled.parses(&w, 16);
//! assert_eq!(forest.trees.len(), 1);
//! assert_eq!(forest.trees[0].flatten(), w);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod alphabet;
pub mod check;
pub mod eval;
pub mod grammar;
pub mod intern;
pub mod syntax;
pub mod theory;
pub mod transform;
