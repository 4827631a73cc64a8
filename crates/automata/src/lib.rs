//! # lambek-automata — automata as indexed inductive linear types
//!
//! The automata substrate of the Dependent Lambek Calculus reproduction
//! (§2, §4.1, §4.2 of the paper): finite automata whose *trace types* are
//! inductive linear grammars, so that running an automaton is building an
//! intrinsically verified parse.
//!
//! * [`nfa`] — NFAs, ε-closures, the `TraceN` grammar (Fig. 5 / Fig. 11)
//!   and native trace values;
//! * [`dfa`] — DFAs with total transition functions, the Bool-indexed
//!   `TraceD` grammar, `parseD`/`printD` (Fig. 12);
//! * [`run`] — the Theorem 4.9 verified parser for DFA traces;
//! * [`determinize`] — Rabin–Scott subset construction with the
//!   `NtoD`/`DtoN` weak-equivalence transformers (Construction 4.10);
//! * [`partition`] — the symbol classes determinization and
//!   minimization step by, one representative per class;
//! * [`minimize`], [`equiv`], [`ops`] — partition-refinement
//!   minimization, product equivalence checking, and boolean operations
//!   (complement/intersection — the Definition 4.5 disjointness oracle
//!   for the regular fragment);
//! * [`counter`] — the infinite-state Dyck automaton of Fig. 14;
//! * [`lookahead`] — the one-token-lookahead expression automaton of
//!   Fig. 15;
//! * [`gen`] — random and adversarial generators for tests and benches.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod counter;
pub mod determinize;
pub mod dfa;
pub mod equiv;
pub mod gen;
pub mod lookahead;
pub mod minimize;
pub mod nfa;
pub mod ops;
pub mod partition;
pub mod run;

#[cfg(test)]
mod oracle;
