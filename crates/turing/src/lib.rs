//! # lambek-turing — unrestricted grammars via Turing machines
//!
//! §4.3 of the paper: LambekD can express *arbitrarily complex* grammars,
//! because any non-linear predicate on strings reifies into a linear type
//! (Construction 4.15). This crate provides the substrate — a
//! deterministic single-tape Turing machine with a fueled simulator
//! ([`machine`]) — and the (length-truncated) `Reify` construction
//! ([`reify`]), demonstrated on the non-context-free language `aⁿbⁿcⁿ`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod machine;
pub mod reify;
