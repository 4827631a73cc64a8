//! Deterministic finite automata and their Bool-indexed traces (Fig. 11).
//!
//! A [`Dfa`] has a *total* transition function `δ : states × Σ → states`.
//! Its trace type `TraceD : (s : states) (b : Bool) → L` is indexed both
//! by the start state and by whether the trace is *accepting* — the key
//! trick of §4.1: the rejecting traces `TraceD s false` are exactly the
//! negative grammar a verified parser needs, with disjointness from the
//! accepting traces falling out of determinism (Theorem 4.9).

use lambek_core::alphabet::{Alphabet, GString, Symbol};
use lambek_core::grammar::expr::{chr, eps, mu, plus, tensor, var, Grammar, MuSystem};
use lambek_core::grammar::parse_tree::ParseTree;

use crate::nfa::StateId;
use crate::partition::{Refiner, SymbolPartition};

/// A deterministic finite automaton with a total transition function.
///
/// The transition table is stored *dense and flat*: one row-major
/// `Vec<StateId>` with stride `|Σ|`, so a step is a single multiply-add
/// and load with no per-row pointer chase and no hashing. This is the
/// table-driven representation the serving engine
/// (`lambekd::engine`) relies on for its hot paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    alphabet: Alphabet,
    init: StateId,
    accepting: Vec<bool>,
    /// Optional accept *tag* per state — the lexing layer's "which token
    /// rule matched here". `Some(t)` implies the state accepts; smaller
    /// tags are higher priority (determinization resolves a subset
    /// containing several tagged NFA states to the minimum tag, and
    /// minimization only merges states with identical tags). Plain
    /// automata leave every entry `None`.
    tags: Vec<Option<usize>>,
    /// Row-major stride: number of symbols in the alphabet.
    stride: usize,
    /// `delta[s * stride + c.index()]` is the successor of `s` on `c`.
    delta: Vec<StateId>,
}

impl Dfa {
    /// Creates a DFA from its transition table (one row per state).
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or ragged, a row's width differs from
    /// the alphabet size, any target is out of range, or `init` is out of
    /// range.
    pub fn new(
        alphabet: Alphabet,
        init: StateId,
        accepting: Vec<bool>,
        delta: Vec<Vec<StateId>>,
    ) -> Dfa {
        let n = delta.len();
        assert!(n > 0, "a DFA needs at least one state");
        assert_eq!(accepting.len(), n, "one accepting flag per state");
        assert!(init < n, "initial state out of range");
        let stride = alphabet.len();
        let mut flat = Vec::with_capacity(n * stride);
        for row in &delta {
            assert_eq!(row.len(), stride, "one successor per symbol");
            for &t in row {
                assert!(t < n, "transition target out of range");
            }
            flat.extend_from_slice(row);
        }
        let tags = vec![None; n];
        Dfa {
            alphabet,
            init,
            accepting,
            tags,
            stride,
            delta: flat,
        }
    }

    /// Creates a DFA directly from a flat row-major transition table of
    /// length `accepting.len() * alphabet.len()`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Dfa::new`].
    pub fn from_flat(
        alphabet: Alphabet,
        init: StateId,
        accepting: Vec<bool>,
        delta: Vec<StateId>,
    ) -> Dfa {
        let n = accepting.len();
        let stride = alphabet.len();
        assert!(n > 0, "a DFA needs at least one state");
        assert_eq!(delta.len(), n * stride, "one successor per (state, symbol)");
        assert!(init < n, "initial state out of range");
        assert!(
            delta.iter().all(|&t| t < n),
            "transition target out of range"
        );
        let tags = vec![None; n];
        Dfa {
            alphabet,
            init,
            accepting,
            tags,
            stride,
            delta,
        }
    }

    /// Attaches an accept tag table (one optional tag per state),
    /// consuming and returning the DFA. Tags are how the lexing layer
    /// records *which* prioritized rule a state accepts for; see the
    /// field documentation for the priority convention.
    ///
    /// # Panics
    ///
    /// Panics if `tags` has the wrong length or tags a non-accepting
    /// state (a tag is a refinement of acceptance, never a replacement).
    pub fn with_tags(mut self, tags: Vec<Option<usize>>) -> Dfa {
        assert_eq!(tags.len(), self.num_states(), "one optional tag per state");
        for (s, t) in tags.iter().enumerate() {
            assert!(
                t.is_none() || self.accepting[s],
                "state {s} is tagged but not accepting"
            );
        }
        self.tags = tags;
        self
    }

    /// The accept tag of `state`, if any. `Some` implies
    /// [`Dfa::is_accepting`].
    #[inline]
    pub fn accept_tag(&self, state: StateId) -> Option<usize> {
        self.tags[state]
    }

    /// The full tag table (one entry per state).
    pub fn tags(&self) -> &[Option<usize>] {
        &self.tags
    }

    /// `true` if any state carries an accept tag.
    pub fn is_tagged(&self) -> bool {
        self.tags.iter().any(|t| t.is_some())
    }

    /// The input alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.accepting.len()
    }

    /// The initial state.
    pub fn init(&self) -> StateId {
        self.init
    }

    /// Whether `state` accepts.
    #[inline]
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state]
    }

    /// The transition function `δ(state, sym)`.
    ///
    /// `sym` must come from this DFA's alphabet: a foreign symbol with a
    /// larger index would land in a neighboring row of the flat table
    /// (caught by a debug assertion; mixing alphabets is a logic error
    /// per [`Symbol`]'s contract).
    #[inline]
    pub fn delta(&self, state: StateId, sym: Symbol) -> StateId {
        debug_assert!(sym.index() < self.stride, "symbol outside the alphabet");
        self.delta[state * self.stride + sym.index()]
    }

    /// The dense successor row of `state`: `row[c.index()]` is
    /// `δ(state, c)`.
    #[inline]
    pub fn delta_row(&self, state: StateId) -> &[StateId] {
        &self.delta[state * self.stride..(state + 1) * self.stride]
    }

    /// Runs the DFA from `start`, returning the full state sequence
    /// (length `|w| + 1`).
    pub fn run_from(&self, start: StateId, w: &GString) -> Vec<StateId> {
        let mut states = Vec::with_capacity(w.len() + 1);
        let mut s = start;
        states.push(s);
        for sym in w.iter() {
            debug_assert!(sym.index() < self.stride, "symbol outside the alphabet");
            s = self.delta[s * self.stride + sym.index()];
            states.push(s);
        }
        states
    }

    /// The state reached from `start` after consuming `w` (no state
    /// sequence is materialized — this is the allocation-free fast path).
    #[inline]
    pub fn final_state(&self, start: StateId, w: &GString) -> StateId {
        let mut s = start;
        for sym in w.iter() {
            debug_assert!(sym.index() < self.stride, "symbol outside the alphabet");
            s = self.delta[s * self.stride + sym.index()];
        }
        s
    }

    /// Whether the DFA accepts `w` from the initial state.
    pub fn accepts(&self, w: &GString) -> bool {
        self.accepts_from(self.init, w)
    }

    /// Whether the DFA accepts `w` from `start`.
    pub fn accepts_from(&self, start: StateId, w: &GString) -> bool {
        self.accepting[self.final_state(start, w)]
    }

    /// The column classes: two symbols share a class iff every state
    /// has the same successor on both (`δ(·, a) = δ(·, b)` pointwise).
    /// Computed by splitting the classes state by state on the row.
    pub fn column_classes(&self) -> SymbolPartition {
        let n = self.num_states();
        let mut refiner = Refiner::new(vec![0; self.stride], usize::from(self.stride > 0));
        for s in 0..n {
            if refiner.blocks() == self.stride {
                break;
            }
            let row = self.delta_row(s);
            refiner.split(n, |c| row[c]);
        }
        SymbolPartition::from_labels(&refiner.into_blocks())
    }

    /// The *live* (co-reachable) states: those from which some accepting
    /// state is reachable. A run that enters a non-live state can never
    /// accept any continuation — the viability bit incremental consumers
    /// (the engine's streaming parser) probe per symbol. Accepting states
    /// are live by definition.
    ///
    /// Two backward sweeps mark every state with a live successor; they
    /// settle the usual automaton, whose constructions number successors
    /// after their sources, with no allocation. If the second still marks
    /// a state, one backward breadth-first search over predecessor lists,
    /// built in one pass over the unmarked rows, finishes the rest:
    /// O(states · |Σ|) on any shape, a long chain included.
    pub fn live_states(&self) -> Vec<bool> {
        let n = self.num_states();
        let mut live = self.accepting.clone();
        for _ in 0..2 {
            let mut changed = false;
            for s in (0..n).rev() {
                if !live[s] && self.delta_row(s).iter().any(|&t| live[t]) {
                    live[s] = true;
                    changed = true;
                }
            }
            if !changed {
                return live;
            }
        }
        // The predecessors of each state among those still unmarked,
        // each once however many symbols lead from it.
        let mut preds: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for s in (0..n).filter(|&s| !live[s]) {
            for &t in self.delta_row(s) {
                if preds[t].last() != Some(&s) {
                    preds[t].push(s);
                }
            }
        }
        let mut queue: Vec<StateId> = (0..n).filter(|&s| live[s]).collect();
        let mut head = 0;
        while let Some(&t) = queue.get(head) {
            head += 1;
            for &s in &preds[t] {
                if !live[s] {
                    live[s] = true;
                    queue.push(s);
                }
            }
        }
        live
    }

    /// The Bool-indexed trace type `TraceD` of Fig. 11 as a `μ` system.
    /// Definition `2·s + b` is `TraceD s b`:
    ///
    /// ```text
    /// TraceD s b = (ε if isAcc(s) == b)
    ///            ⊕ ⊕_{c ∈ Σ} 'c' ⊗ TraceD (δ(s,c)) b
    /// ```
    ///
    /// The `nil` summand (when present) has index 0 and the `cons`
    /// summand for symbol `c` has index `nil_offset + c.index()`.
    pub fn trace_grammar(&self) -> DfaTraceGrammar {
        let n = self.num_states();
        let mut defs = Vec::with_capacity(2 * n);
        let mut names = Vec::with_capacity(2 * n);
        for s in 0..n {
            for b in [false, true] {
                let mut summands: Vec<Grammar> = Vec::new();
                if self.accepting[s] == b {
                    summands.push(eps());
                }
                for c in self.alphabet.symbols() {
                    let dst = self.delta(s, c);
                    summands.push(tensor(chr(c), var(Self::def_index(dst, b))));
                }
                defs.push(plus(summands));
                names.push(format!("TraceD({s},{b})"));
            }
        }
        DfaTraceGrammar {
            system: MuSystem::new(defs, names),
            alphabet: self.alphabet.clone(),
        }
    }

    /// Index of the definition `TraceD s b` inside [`Dfa::trace_grammar`].
    pub fn def_index(s: StateId, b: bool) -> usize {
        2 * s + usize::from(b)
    }
}

/// The trace type of a DFA, with helpers tied to the layout convention of
/// [`Dfa::trace_grammar`].
#[derive(Debug, Clone)]
pub struct DfaTraceGrammar {
    /// One definition per `(state, bool)` pair; see [`Dfa::def_index`].
    pub system: std::sync::Arc<MuSystem>,
    alphabet: Alphabet,
}

impl DfaTraceGrammar {
    /// The grammar `TraceD s b`.
    pub fn trace(&self, s: StateId, b: bool) -> Grammar {
        mu(self.system.clone(), Dfa::def_index(s, b))
    }

    /// The summand index of the `cons` constructor for symbol `c` in
    /// definition `TraceD s b` of `dfa`.
    pub fn cons_index(&self, dfa: &Dfa, s: StateId, b: bool, c: Symbol) -> usize {
        let nil_offset = usize::from(dfa.is_accepting(s) == b);
        nil_offset + c.index()
    }

    /// The alphabet the traces range over.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }
}

/// `parseD` (Fig. 12): runs the DFA on `w` from `start` and materializes
/// the unique trace — returning the accept bit `b` and the parse tree of
/// `TraceD start b`.
pub fn parse_dfa(
    dfa: &Dfa,
    tg: &DfaTraceGrammar,
    start: StateId,
    w: &GString,
) -> (bool, ParseTree) {
    let states = dfa.run_from(start, w);
    let b = dfa.is_accepting(*states.last().expect("non-empty run"));
    // Build from the back: nil at the final state, cons at each step.
    let final_state = *states.last().expect("non-empty run");
    debug_assert_eq!(dfa.is_accepting(final_state), b);
    let mut tree = ParseTree::roll(ParseTree::inj(0, ParseTree::Unit));
    for (i, sym) in w.iter().enumerate().rev() {
        let s = states[i];
        let idx = tg.cons_index(dfa, s, b, sym);
        tree = ParseTree::roll(ParseTree::inj(
            idx,
            ParseTree::pair(ParseTree::Char(sym), tree),
        ));
    }
    (b, tree)
}

/// `printD` (Fig. 12): structural recursion over a `TraceD s b` parse
/// tree, reading back the string. Unlike
/// [`flatten`](lambek_core::grammar::parse_tree::ParseTree::flatten), this
/// walks the trace constructors as the paper's `printD` does (and panics
/// on non-trace trees).
///
/// # Panics
///
/// Panics if the tree is not a `TraceD` parse for `dfa` from `(start, b)`.
pub fn print_dfa(
    dfa: &Dfa,
    tg: &DfaTraceGrammar,
    start: StateId,
    b: bool,
    tree: &ParseTree,
) -> GString {
    let mut w = GString::new();
    let mut s = start;
    let mut cur = tree;
    loop {
        let (index, inner) = match cur {
            ParseTree::Roll(inner) => match &**inner {
                ParseTree::Inj { index, tree } => (*index, tree),
                other => panic!("trace must be roll(σ …), got {other}"),
            },
            other => panic!("trace must be roll(…), got {other}"),
        };
        let nil_offset = usize::from(dfa.is_accepting(s) == b);
        if nil_offset == 1 && index == 0 {
            assert_eq!(**inner, ParseTree::Unit, "nil carries a unit");
            return w;
        }
        let c = Symbol::from_index(index - nil_offset);
        match &**inner {
            ParseTree::Pair(ch, rest) => {
                assert_eq!(**ch, ParseTree::Char(c), "cons head is the symbol");
                w.push(c);
                s = dfa.delta(s, c);
                cur = rest;
            }
            other => panic!("cons must carry a pair, got {other}"),
        }
        let _ = tg;
    }
}

/// Builds a DFA for the paper's running example `('a'* ⊗ 'b') ⊕ 'c'`
/// (the determinization of Fig. 5's NFA, hand-rolled): states
/// `0 = {0,1}` (init), `1 = {1}`, `2 = {2}` (accept), `3 = ∅` (sink).
pub fn fig5_dfa() -> Dfa {
    let sigma = Alphabet::abc();
    // symbols a=0, b=1, c=2.
    let delta = vec![
        vec![1, 2, 2], // 0: a->1, b->2, c->2
        vec![1, 2, 3], // 1: a->1, b->2, c->sink
        vec![3, 3, 3], // 2: accept, any -> sink
        vec![3, 3, 3], // 3: sink
    ];
    Dfa::new(sigma, 0, vec![false, false, true, false], delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambek_core::grammar::compile::CompiledGrammar;
    use lambek_core::grammar::expr::alt;
    use lambek_core::grammar::parse_tree::validate;
    use lambek_core::theory::unambiguous::{all_strings, check_unambiguous};

    #[test]
    fn fig5_dfa_language() {
        let dfa = fig5_dfa();
        let s = dfa.alphabet().clone();
        for yes in ["b", "ab", "aab", "c"] {
            assert!(dfa.accepts(&s.parse_str(yes).unwrap()), "{yes}");
        }
        for no in ["", "a", "ba", "cc", "cb"] {
            assert!(!dfa.accepts(&s.parse_str(no).unwrap()), "{no}");
        }
    }

    #[test]
    fn parse_print_retraction() {
        // Theorem 4.9's retraction: printD (parseD w) == w.
        let dfa = fig5_dfa();
        let tg = dfa.trace_grammar();
        let s = dfa.alphabet().clone();
        for w in all_strings(&s, 5) {
            let (b, tree) = parse_dfa(&dfa, &tg, dfa.init(), &w);
            assert_eq!(b, dfa.accepts(&w), "{w}");
            validate(&tree, &tg.trace(dfa.init(), b), &w).unwrap();
            assert_eq!(print_dfa(&dfa, &tg, dfa.init(), b, &tree), w, "{w}");
        }
    }

    #[test]
    fn trace_types_are_unambiguous() {
        // §4.1: ⊕_b TraceD s b is a retract of String, hence unambiguous.
        let dfa = fig5_dfa();
        let tg = dfa.trace_grammar();
        let s = dfa.alphabet().clone();
        for state in 0..dfa.num_states() {
            let sum = alt(tg.trace(state, true), tg.trace(state, false));
            check_unambiguous(&sum, &s, 3).unwrap();
        }
    }

    #[test]
    fn accepting_trace_language_is_dfa_language() {
        let dfa = fig5_dfa();
        let tg = dfa.trace_grammar();
        let s = dfa.alphabet().clone();
        let cg_true = CompiledGrammar::new(&tg.trace(dfa.init(), true));
        let cg_false = CompiledGrammar::new(&tg.trace(dfa.init(), false));
        for w in all_strings(&s, 4) {
            assert_eq!(cg_true.recognizes(&w), dfa.accepts(&w), "{w}");
            assert_eq!(cg_false.recognizes(&w), !dfa.accepts(&w), "{w}");
        }
    }

    #[test]
    fn every_string_has_exactly_one_trace_overall() {
        // Determinism: each w inhabits exactly one of the two trace types,
        // with exactly one parse.
        let dfa = fig5_dfa();
        let tg = dfa.trace_grammar();
        let s = dfa.alphabet().clone();
        let sum = alt(tg.trace(dfa.init(), true), tg.trace(dfa.init(), false));
        let cg = CompiledGrammar::new(&sum);
        for w in all_strings(&s, 4) {
            let amb = cg.count_parses(&w, 4);
            assert_eq!(amb.count, 1, "{w}");
        }
    }

    #[test]
    #[should_panic(expected = "one successor per symbol")]
    fn ragged_delta_rejected() {
        let sigma = Alphabet::abc();
        Dfa::new(sigma, 0, vec![false], vec![vec![0, 0]]);
    }

    #[test]
    fn tags_default_to_none_and_attach_via_with_tags() {
        let dfa = fig5_dfa();
        assert!(!dfa.is_tagged());
        assert!((0..dfa.num_states()).all(|s| dfa.accept_tag(s).is_none()));
        let tagged = dfa.clone().with_tags(vec![None, None, Some(7), None]);
        assert!(tagged.is_tagged());
        assert_eq!(tagged.accept_tag(2), Some(7));
        assert_eq!(tagged.tags(), &[None, None, Some(7), None]);
        // Tags do not perturb the language or equality-on-structure of
        // the untagged part.
        let s = tagged.alphabet().clone();
        for w in ["b", "ab", "c", "", "ba"] {
            let w = s.parse_str(w).unwrap();
            assert_eq!(tagged.accepts(&w), dfa.accepts(&w));
        }
    }

    #[test]
    #[should_panic(expected = "tagged but not accepting")]
    fn tagging_a_rejecting_state_is_rejected() {
        fig5_dfa().with_tags(vec![Some(0), None, None, None]);
    }

    #[test]
    fn live_states_ignores_tags() {
        // Co-reachability is a property of the transition structure and
        // the accept bits; attaching tags must not change it (the lexer's
        // maximal-munch driver keys its dead-state detection off this).
        let dfa = fig5_dfa();
        let live_before = dfa.live_states();
        let tagged = dfa.with_tags(vec![None, None, Some(3), None]);
        assert_eq!(tagged.live_states(), live_before);
        assert_eq!(tagged.live_states(), vec![true, true, true, false]);
    }
}
