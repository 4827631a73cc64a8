//! # lambek-cfg — context-free grammars as inductive linear types
//!
//! The context-free layer of the Dependent Lambek Calculus reproduction
//! (§4.2 of the paper):
//!
//! * [`grammar`] — CFGs and their μ-regular encoding into linear types;
//! * [`analysis`] — the FIRST fixpoint, the input of table-driven
//!   parser constructions (the LR layer consumes it);
//! * [`earley`] — the Earley baseline parser (recognition + derivation
//!   trees in the μ-regular shape, with explicit ambiguity reporting);
//! * [`dyck`] — the Dyck grammar (Fig. 13), its strong equivalence with
//!   the counter automaton's traces, and the verified Dyck parser
//!   (Theorem 4.13);
//! * [`expr`] — the arithmetic `Exp`/`Atom` grammar, its weak equivalence
//!   with the lookahead automaton's traces, and the verified expression
//!   parser (Theorem 4.14).

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod dyck;
pub mod earley;
pub mod expr;
pub mod grammar;
pub mod semantics;
