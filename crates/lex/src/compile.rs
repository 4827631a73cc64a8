//! Compiling a [`LexSpec`] to its tagged-accept DFA.
//!
//! The path is the workspace's existing verified-construction pipeline,
//! reused wholesale: each rule's regex goes through Thompson's
//! construction (Construction 4.11), the per-rule NFAs are glued under a
//! fresh ε-start into one *union* NFA whose accept states carry the
//! owning rule's index as a tag, and the union is determinized
//! (Construction 4.10, tag conflicts resolved by rule priority — the
//! subset keeps the minimum tag) and minimized (tags refine the
//! partition, so no merge ever loses a priority decision). The result is
//! a dense flat-table [`Dfa`] where one load answers both "does this
//! state accept?" and "for which rule?" — exactly what the
//! maximal-munch driver probes per character.
//!
//! A character class such as [`class`](crate::spec::class) or the
//! frontend's `[...]` is an alternation chain of `Char` leaves, and
//! Thompson's construction compiles each maximal one to a single *set
//! fragment*: two states and one labeled edge per member, with no
//! ε-edge (json.g's union NFA: 117 states and 86 ε-edges, not 1,093 and
//! 1,062).
//!
//! Every stage after Thompson works per *symbol class*, not per symbol.
//! Determinization partitions the alphabet into the classes of symbols
//! that label exactly the same NFA edges, steps each subset once per
//! class representative and copies the row to every member; minimization
//! refines over the determinized DFA's column classes (symbols with
//! identical transition columns); and the byte tables below read their
//! classes off the DFA they are given. A lexer has far fewer classes
//! than symbols: the minimized DFA of a generated expression grammar has
//! 12 column classes over 47 symbols, json.g's 29 over 98.
//!
//! Compilation additionally lowers the char-level DFA to **byte-sliced
//! execution tables** (`ByteDfa`): ASCII byte values are partitioned
//! into *byte-equivalence classes* (the DFA's column classes that have
//! an ASCII member), and the driver's hot loop steps through a flat
//! table of premultiplied state ids via a 256-entry column map — no
//! char decoding, no `Alphabet` hash probe, no multiply, and the
//! co-reachability check folded into a DEAD sentinel row. Bytes ≥ 0x80
//! (and ASCII bytes outside the alphabet) fall back to char-at-a-time
//! stepping, so non-ASCII alphabets keep exact char-level semantics.

use std::sync::Arc;

use lambek_automata::determinize::determinize_tagged;
use lambek_automata::dfa::Dfa;
use lambek_automata::minimize::minimize;
use lambek_automata::nfa::Nfa;
use regex_grammars::thompson::thompson;

use crate::spec::LexSpec;

/// A compiled lexical specification: the spec plus its tagged DFA and
/// the DFA's co-reachability table.
///
/// Cheap to clone (`Arc`-shared) and `Send + Sync`; one compiled
/// automaton serves every driver and stream opened from it.
#[derive(Debug, Clone)]
pub struct LexAutomaton {
    core: Arc<LexCore>,
}

#[derive(Debug)]
pub(crate) struct LexCore {
    pub(crate) spec: Arc<LexSpec>,
    pub(crate) dfa: Dfa,
    /// `live[s]`: some accepting state is reachable from `s`. The
    /// driver treats a step into a non-live state as "the current token
    /// just ended" (or a lexical error if nothing has been accepted).
    pub(crate) live: Vec<bool>,
    /// The byte-sliced execution tables the hot scan loop runs on.
    pub(crate) bytes: ByteDfa,
}

/// Byte-sliced execution tables for the maximal-munch hot loop, built
/// once at compile time from the tagged DFA.
///
/// ASCII byte values are partitioned into equivalence classes: two bytes
/// land in the same class iff their alphabet symbols have identical
/// transition columns (`δ(·, a) = δ(·, b)` pointwise,
/// [`Dfa::column_classes`]). State ids are **premultiplied**: a state's
/// id is its row's offset in the flat table, `state × stride`, so the
/// scanner steps `id → next[id + column_of[byte]]` — one add and two
/// loads per byte, no multiply on the chain each step waits for. Three
/// more tricks are folded in:
///
/// * **Column 0 is the accept column**: `next[id]` is `tag + 1` of the
///   state's accept tag (0 = not accepting), so the last-accept update
///   reads the row the step just landed on, and the id needs no
///   division to find it.
/// * **Column 1 is the dead class**: ASCII bytes outside the alphabet
///   (and all bytes ≥ 0x80, which never take this path) map to it, and
///   every entry of it is `DEAD` — so "character not in Σ" and
///   "transition died" are the same table lookup.
/// * **Co-reachability is pre-applied**: an entry whose true successor
///   is not live (`!live[t]`) is stored as `DEAD`, so the per-step
///   `live[]` probe of the char-level loop disappears.
///
/// `DEAD` is the sentinel row after the DFA's `num_states` rows; it is
/// all `DEAD` and not accepting, so a scan that died stays dead without
/// branching. Plain state ids stay at the boundaries (the char-level
/// DFA, the munch memo's one bit per state): [`ByteDfa::plain`] and
/// [`ByteDfa::premultiply`] convert.
#[derive(Debug)]
pub(crate) struct ByteDfa {
    /// Byte value → table column (class + 1). Bytes outside the
    /// alphabet map to the dead class's column 1; bytes ≥ 0x80 do too,
    /// but the scanner never consults them here (they take the
    /// char-decoding fallback).
    pub(crate) column_of: [u8; 256],
    /// Number of byte classes, dead class included.
    pub(crate) nclasses: usize,
    /// Row width of `next`: the accept column plus one per class.
    stride: usize,
    /// `⌈2³² / stride⌉`: [`ByteDfa::plain`] divides by `stride` with one
    /// multiply.
    reciprocal: u64,
    /// Flat premultiplied table, `(num_states + 1)` rows of `stride`
    /// entries — the last row is the DEAD sentinel's.
    pub(crate) next: Vec<u32>,
    /// The DFA's initial state (premultiplied).
    pub(crate) init: u32,
    /// The DEAD sentinel (premultiplied).
    pub(crate) dead: u32,
}

impl ByteDfa {
    fn build(spec: &LexSpec, dfa: &Dfa, live: &[bool]) -> ByteDfa {
        let n = dfa.num_states();
        let sigma = spec.alphabet();
        // The byte classes are the DFA's column classes that have an
        // ASCII member, numbered from 1 in byte order.
        let columns = dfa.column_classes();
        let mut byte_class = vec![0u8; columns.len()];
        let mut column_of = [1u8; 256];
        let mut class_sym = Vec::new(); // representative symbol per class (class 0 has none)
        for b in 0u8..0x80 {
            let Some(sym) = sigma.symbol_of_char(b as char) else {
                continue;
            };
            let cls = &mut byte_class[columns.class_of(sym)];
            if *cls == 0 {
                class_sym.push(sym);
                *cls = class_sym.len() as u8;
            }
            column_of[b as usize] = *cls + 1;
        }
        let nclasses = class_sym.len() + 1;
        let stride = nclasses + 1;
        let dead = u32::try_from(n * stride).expect("premultiplied state ids fit u32");
        let id = |s: usize| (s * stride) as u32;
        // The table, DEAD row included. Dead-class columns stay DEAD;
        // real classes pre-apply the co-reachability filter.
        let mut next = vec![dead; (n + 1) * stride];
        for s in 0..n {
            let row = &mut next[s * stride..(s + 1) * stride];
            row[0] = dfa.accept_tag(s).map_or(0, |tag| tag as u32 + 1);
            for (k, &sym) in class_sym.iter().enumerate() {
                let t = dfa.delta(s, sym);
                row[k + 2] = if live[t] { id(t) } else { dead };
            }
        }
        next[n * stride] = 0;
        ByteDfa {
            column_of,
            nclasses,
            stride,
            reciprocal: (1u64 << 32).div_ceil(stride as u64),
            next,
            init: id(dfa.init()),
            dead,
        }
    }

    /// The plain state of premultiplied `id`: `id / stride`, exact for
    /// every id `s × stride` of the table, since the rounding error
    /// `s × (stride × reciprocal − 2³²)` stays below `s × stride`, which
    /// fits `u32`.
    #[inline]
    pub(crate) fn plain(&self, id: u32) -> u32 {
        ((u64::from(id) * self.reciprocal) >> 32) as u32
    }

    /// The premultiplied id of plain state `s`.
    #[inline]
    pub(crate) fn premultiply(&self, s: usize) -> u32 {
        (s * self.stride) as u32
    }
}

/// Builds the union NFA: a fresh start state with an ε-edge into each
/// rule's Thompson NFA, accept states tagged with the rule index.
fn union_nfa(spec: &LexSpec) -> (Nfa, Vec<Option<usize>>) {
    let sigma = spec.alphabet().clone();
    let mut nfa = Nfa::new(sigma.clone(), 1, 0);
    let mut tags = vec![None];
    for (rule, r) in spec.rules().iter().enumerate() {
        let th = thompson(&sigma, &r.regex);
        let part = th.nfa();
        let base = nfa.num_states();
        for s in 0..part.num_states() {
            let copy = nfa.add_state();
            debug_assert_eq!(copy, base + s);
            if part.is_accepting(s) {
                nfa.set_accepting(copy, true);
                tags.push(Some(rule));
            } else {
                tags.push(None);
            }
        }
        for t in part.transitions() {
            nfa.add_transition(base + t.src, t.label, base + t.dst);
        }
        for e in part.eps_transitions() {
            nfa.add_eps(base + e.src, base + e.dst);
        }
        nfa.add_eps(0, base + part.init());
    }
    (nfa, tags)
}

impl LexAutomaton {
    /// Compiles `spec` through Thompson → tagged determinize → tagged
    /// minimize. An `Arc`-shared spec is kept, not copied.
    pub fn compile(spec: impl Into<Arc<LexSpec>>) -> LexAutomaton {
        let spec = spec.into();
        let (nfa, tags) = union_nfa(&spec);
        let det = determinize_tagged(&nfa, &tags);
        LexAutomaton::from_dfa(spec, minimize(&det.dfa))
    }

    /// Serves `dfa` as `spec`'s tagged DFA. The DFA is untrusted (the
    /// certifier re-matches every lexeme by derivatives of the spec's
    /// rules), so fault-injection tests serve corrupted DFAs this way.
    /// Panics unless `dfa` is over the spec's alphabet and each of its
    /// accept tags names a rule.
    #[doc(hidden)]
    pub fn from_dfa(spec: impl Into<Arc<LexSpec>>, dfa: Dfa) -> LexAutomaton {
        let spec = spec.into();
        let rules = spec.rules().len();
        assert!(dfa.alphabet() == spec.alphabet(), "another alphabet");
        assert!(
            dfa.tags().iter().flatten().all(|&t| t < rules),
            "no such rule"
        );
        let live = dfa.live_states();
        let bytes = ByteDfa::build(&spec, &dfa, &live);
        LexAutomaton {
            core: Arc::new(LexCore {
                spec,
                dfa,
                live,
                bytes,
            }),
        }
    }

    /// How many byte-equivalence classes the byte-sliced tables use
    /// (dead class included) — introspection for tests and benchmarks.
    pub fn num_byte_classes(&self) -> usize {
        self.core.bytes.nclasses
    }

    /// The spec this automaton was compiled from.
    pub fn spec(&self) -> &LexSpec {
        &self.core.spec
    }

    /// The tagged-accept DFA (introspection and benchmarks).
    pub fn dfa(&self) -> &Dfa {
        &self.core.dfa
    }

    /// Co-reachability per DFA state (see [`Dfa::live_states`]).
    pub fn live(&self) -> &[bool] {
        &self.core.live
    }

    pub(crate) fn core(&self) -> &Arc<LexCore> {
        &self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LexSpecBuilder;
    use lambek_core::alphabet::Alphabet;

    fn keyword_spec() -> LexSpec {
        let sigma = Alphabet::from_chars("ifx ");
        LexSpecBuilder::new(sigma)
            .token("IF", "if")
            .unwrap()
            .token("ID", "(i|f|x)(i|f|x)*")
            .unwrap()
            .skip("WS", "  *")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn compiled_dfa_tags_resolve_by_priority() {
        let auto = LexAutomaton::compile(keyword_spec());
        let sigma = auto.spec().alphabet().clone();
        let tag_after = |txt: &str| {
            let w = sigma.parse_str(txt).unwrap();
            let dfa = auto.dfa();
            dfa.accept_tag(dfa.final_state(dfa.init(), &w))
        };
        assert_eq!(tag_after("if"), Some(0), "keyword beats identifier");
        assert_eq!(tag_after("i"), Some(1));
        assert_eq!(tag_after("iff"), Some(1));
        assert_eq!(tag_after(" "), Some(2), "skip rules are rules too");
        assert_eq!(tag_after(""), None);
    }

    #[test]
    fn plain_ids_invert_premultiplied_ones() {
        let auto = LexAutomaton::compile(keyword_spec());
        let bt = &auto.core.bytes;
        for s in 0..=auto.dfa().num_states() {
            assert_eq!(bt.plain(bt.premultiply(s)) as usize, s);
        }
        // The reciprocal stays exact up to the largest id that fits u32.
        for stride in [2usize, 3, 7, 129, 1000] {
            let wide = ByteDfa {
                stride,
                reciprocal: (1u64 << 32).div_ceil(stride as u64),
                ..ByteDfa::build(auto.spec(), auto.dfa(), auto.live())
            };
            let top = u32::MAX as usize / stride;
            for s in [0, 1, top / 2, top - 1, top] {
                assert_eq!(wide.plain(wide.premultiply(s)) as usize, s, "{stride} {s}");
            }
        }
    }

    #[test]
    fn dead_states_are_detected() {
        // "x " cannot extend to any single token: after the identifier
        // ended, a space leads to a non-live state.
        let auto = LexAutomaton::compile(keyword_spec());
        let sigma = auto.spec().alphabet().clone();
        let dfa = auto.dfa();
        let end = dfa.final_state(dfa.init(), &sigma.parse_str("x ").unwrap());
        assert!(!auto.live()[end]);
        let ok = dfa.final_state(dfa.init(), &sigma.parse_str("i").unwrap());
        assert!(auto.live()[ok]);
    }
}
