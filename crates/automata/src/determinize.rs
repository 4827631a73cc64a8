//! Rabin–Scott determinization (Construction 4.10).
//!
//! The states of the determinized automaton are the ε-closed subsets of
//! NFA states reachable from the ε-closure of the initial state. The
//! construction provides a *weak* equivalence between the accepting
//! traces of the NFA and of the DFA — weak and not strong, because
//! determinization collapses ambiguity (§4.1).
//!
//! * `NtoD` maps an accepting NFA trace to the unique accepting DFA trace
//!   over the same string (determinism makes it unique, so running the
//!   DFA on the yield *is* the map).
//! * `DtoN` needs a *choice function*: an accepting DFA trace only proves
//!   the existence of an accepting NFA path. Following the paper, we pick
//!   the least trace under an ordering on states, transitions and
//!   ε-transitions: working backwards, at each step the smallest labeled
//!   transition compatible with the remaining path is chosen, connected
//!   by lexicographically-least shortest ε-paths.

use std::collections::{BTreeSet, HashMap, VecDeque};

use lambek_core::alphabet::{GString, Symbol};
use lambek_core::theory::equivalence::WeakEquiv;
use lambek_core::transform::{TransformError, Transformer};

use crate::dfa::{parse_dfa, Dfa};
use crate::nfa::{Nfa, NfaTrace, StateId};
use crate::partition::SymbolPartition;

/// The result of determinizing an NFA: the DFA plus the subset each DFA
/// state denotes.
#[derive(Debug, Clone)]
pub struct Determinized {
    /// The subset-construction DFA.
    pub dfa: Dfa,
    /// `subsets[d]` is the ε-closed set of NFA states that DFA state `d`
    /// stands for. The empty set is the (non-accepting) sink.
    pub subsets: Vec<BTreeSet<StateId>>,
}

/// Runs the subset construction with ε-closures (Construction 4.10).
pub fn determinize(nfa: &Nfa) -> Determinized {
    determinize_core(nfa, None)
}

/// Subset construction for a *tagged* NFA: `tags[s]` optionally marks
/// NFA state `s` as the accept state of prioritized rule `tags[s]`
/// (smaller = higher priority, the lexing convention). Each DFA state
/// inherits the **minimum** tag over its member NFA states, so when two
/// rules' accept states land in one subset — a keyword that is also an
/// identifier, say — the earlier rule wins deterministically.
///
/// # Panics
///
/// Panics if `tags` is not one entry per NFA state, or tags a
/// non-accepting NFA state.
pub fn determinize_tagged(nfa: &Nfa, tags: &[Option<usize>]) -> Determinized {
    assert_eq!(tags.len(), nfa.num_states(), "one optional tag per state");
    for (s, t) in tags.iter().enumerate() {
        assert!(
            t.is_none() || nfa.is_accepting(s),
            "NFA state {s} is tagged but not accepting"
        );
    }
    determinize_core(nfa, Some(tags))
}

/// Compressed adjacency: the edges out of state `s` are
/// `edges[start[s]..start[s + 1]]`, in the order they were given.
struct Adjacency<T> {
    start: Vec<usize>,
    edges: Vec<T>,
}

impl<T: Copy> Adjacency<T> {
    /// Groups `(source, edge)` pairs over `n` states by source.
    fn new(n: usize, pairs: impl Iterator<Item = (StateId, T)> + Clone) -> Adjacency<T> {
        let mut start = vec![0; n + 1];
        for (s, _) in pairs.clone() {
            start[s + 1] += 1;
        }
        for s in 0..n {
            start[s + 1] += start[s];
        }
        let mut edges = match pairs.clone().next() {
            Some((_, fill)) => vec![fill; start[n]],
            None => Vec::new(),
        };
        let mut cursor = start.clone();
        for (s, e) in pairs {
            edges[cursor[s]] = e;
            cursor[s] += 1;
        }
        Adjacency { start, edges }
    }

    /// The edges out of `s`.
    fn of(&self, s: StateId) -> &[T] {
        &self.edges[self.start[s]..self.start[s + 1]]
    }

    /// The edges out of `s`, mutably.
    fn of_mut(&mut self, s: StateId) -> &mut [T] {
        &mut self.edges[self.start[s]..self.start[s + 1]]
    }
}

/// The NFA's symbol classes: two symbols share a class iff they label
/// exactly the same edges. `moves` holds each state's labelled edges
/// sorted by target, so the symbols on one `src → dst` pair are one
/// run, and each run splits every class it meets into its members
/// inside and outside the run.
fn edge_classes(len: usize, moves: &Adjacency<(StateId, Symbol)>) -> SymbolPartition {
    let mut label = vec![0u32; len];
    // Per label: the run that last met it and the label that run moved
    // its members to.
    let mut moved: Vec<(usize, u32)> = vec![(0, 0)];
    let runs = (0..moves.start.len() - 1).flat_map(|s| moves.of(s).chunk_by(|a, b| a.0 == b.0));
    for (run, edges) in runs.enumerate() {
        for &(_, c) in edges {
            let old = label[c.index()] as usize;
            if moved[old].0 != run + 1 {
                let fresh = moved.len() as u32;
                moved[old] = (run + 1, fresh);
                moved.push((run + 1, fresh));
            }
            label[c.index()] = moved[old].1;
        }
    }
    SymbolPartition::from_labels(&label)
}

fn determinize_core(nfa: &Nfa, tags: Option<&[Option<usize>]>) -> Determinized {
    let alphabet = nfa.alphabet().clone();
    let n = nfa.num_states();
    // Adjacency indexes, built once: `Nfa::step`/`eps_closure` scan the
    // whole transition lists per call, fine for one simulation step but
    // ruinous inside the subset construction.
    let eps = Adjacency::new(n, nfa.eps_transitions().iter().map(|e| (e.src, e.dst)));
    let mut moves = Adjacency::new(
        n,
        nfa.transitions().iter().map(|t| (t.src, (t.dst, t.label))),
    );
    for s in 0..n {
        moves.of_mut(s).sort_unstable_by_key(|&(dst, _)| dst);
    }
    // A character class labels one edge per member, so a lexer's union
    // NFA over ~100 symbols has few classes. The construction steps
    // once per class, through edges labelled by the class's
    // representative, and copies the row to every member.
    let classes = &edge_classes(alphabet.len(), &moves);
    let k = classes.len();
    let class_moves = Adjacency::new(
        n,
        (0..n).flat_map(|s| {
            moves.of(s).iter().filter_map(move |&(dst, c)| {
                let class = classes.class_of(c);
                (classes.reps()[class] == c).then_some((s, (class, dst)))
            })
        }),
    );
    // Subsets live as fixed-width u64 bitsets during the construction:
    // membership set/test is one shift+or, the interning key hashes
    // `words` machine words, and the member list is recovered by bit
    // iteration only once per *discovered* state.
    let words = n.div_ceil(64);
    let set = |bits: &mut [u64], s: StateId| -> bool {
        let mask = 1u64 << (s % 64);
        let fresh = bits[s / 64] & mask == 0;
        bits[s / 64] |= mask;
        fresh
    };
    let close = |bits: &mut [u64], stack: &mut Vec<StateId>| {
        while let Some(s) = stack.pop() {
            for &d in eps.of(s) {
                if set(bits, d) {
                    stack.push(d);
                }
            }
        }
    };
    let members = |bits: &[u64]| -> Vec<StateId> {
        let mut out = Vec::new();
        for (w, &word) in bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                out.push(w * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
        out
    };

    let start = {
        let mut bits = vec![0u64; words];
        let mut stack = vec![nfa.init()];
        set(&mut bits, nfa.init());
        close(&mut bits, &mut stack);
        bits
    };
    let mut subset_members: Vec<Vec<StateId>> = vec![members(&start)];
    let mut index: HashMap<Box<[u64]>, StateId> = HashMap::from([(start.into(), 0)]);
    // Per class: the successor subset being built and its unclosed
    // states, reused across DFA states.
    let mut next = vec![0u64; k * words];
    let mut stacks: Vec<Vec<StateId>> = vec![Vec::new(); k];
    // Rows over classes, `k` per DFA state, in BFS order: state ids are
    // handed out in discovery order, so state `d` is processed `d`-th.
    let mut rows: Vec<StateId> = Vec::new();
    let mut d = 0;
    while d < subset_members.len() {
        for &s in &subset_members[d] {
            for &(class, dst) in class_moves.of(s) {
                if set(&mut next[class * words..(class + 1) * words], dst) {
                    stacks[class].push(dst);
                }
            }
        }
        for (class, stack) in stacks.iter_mut().enumerate() {
            let bits = &mut next[class * words..(class + 1) * words];
            close(bits, stack);
            let id = match index.get(&*bits) {
                Some(&id) => id,
                None => {
                    let id = subset_members.len();
                    subset_members.push(members(bits));
                    index.insert((&*bits).into(), id);
                    id
                }
            };
            rows.push(id);
            bits.fill(0);
        }
        d += 1;
    }
    let mut delta = Vec::with_capacity(subset_members.len() * alphabet.len());
    for row in rows.chunks_exact(k.max(1)) {
        classes.expand_row(row, &mut delta);
    }
    let accepting: Vec<bool> = subset_members
        .iter()
        .map(|set| set.iter().any(|&s| nfa.is_accepting(s)))
        .collect();
    let mut dfa = Dfa::from_flat(alphabet, 0, accepting, delta);
    if let Some(tags) = tags {
        let dfa_tags: Vec<Option<usize>> = subset_members
            .iter()
            .map(|set| set.iter().filter_map(|&s| tags[s]).min())
            .collect();
        dfa = dfa.with_tags(dfa_tags);
    }
    let subsets = subset_members
        .into_iter()
        .map(|m| m.into_iter().collect())
        .collect();
    Determinized { dfa, subsets }
}

/// Shortest ε-path from `from` to `to` as a list of ε-transition indices,
/// BFS preferring smaller transition indices (the paper's ordering-based
/// disambiguation). Returns `None` if unreachable.
fn eps_path(nfa: &Nfa, from: StateId, to: StateId) -> Option<Vec<usize>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut parent: HashMap<StateId, (StateId, usize)> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    while let Some(s) = queue.pop_front() {
        for (i, e) in nfa.eps_transitions().iter().enumerate() {
            if e.src == s && e.dst != from && !parent.contains_key(&e.dst) {
                parent.insert(e.dst, (s, i));
                if e.dst == to {
                    let mut path = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (prev, eid) = parent[&cur];
                        path.push(eid);
                        cur = prev;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(e.dst);
            }
        }
    }
    None
}

/// The choice function behind `DtoN`: from an accepted string, rebuild the
/// least accepting NFA trace from `nfa.init()`.
///
/// # Panics
///
/// Panics if the NFA does not accept `w` (callers guarantee acceptance —
/// the DFA trace is accepting and the construction is language-preserving).
pub fn least_accepting_trace(nfa: &Nfa, w: &GString) -> NfaTrace {
    // Forward subset run (without building the whole DFA).
    let mut subsets = Vec::with_capacity(w.len() + 1);
    subsets.push(nfa.eps_closure(&BTreeSet::from([nfa.init()])));
    for sym in w.iter() {
        let next = nfa.step(subsets.last().expect("non-empty"), sym);
        subsets.push(next);
    }
    // Choose the smallest accepting final state.
    let last = subsets.last().expect("non-empty");
    let mut current = *last
        .iter()
        .find(|&&s| nfa.is_accepting(s))
        .expect("NFA must accept w");
    let mut trace = NfaTrace::Stop;
    // Walk backwards, choosing the least compatible transition each step.
    for (i, sym) in w.iter().enumerate().rev() {
        let source_set = &subsets[i];
        let mut chosen: Option<(usize, Vec<usize>)> = None;
        for (tid, t) in nfa.transitions().iter().enumerate() {
            if t.label == sym && source_set.contains(&t.src) {
                if let Some(path) = eps_path(nfa, t.dst, current) {
                    chosen = Some((tid, path));
                    break; // transitions scanned in index order: least wins
                }
            }
        }
        let (tid, path) = chosen.expect("subset construction guarantees a predecessor");
        // Assemble: labeled step, then ε-steps to `current`, then `trace`.
        let mut suffix = trace;
        for &eid in path.iter().rev() {
            suffix = NfaTrace::eps_step(eid, suffix);
        }
        trace = NfaTrace::step(tid, suffix);
        current = nfa.transitions()[tid].src;
    }
    // Finally an ε-path from the true initial state to `current`.
    let path = eps_path(nfa, nfa.init(), current).expect("current ∈ eclose(init)");
    for &eid in path.iter().rev() {
        trace = NfaTrace::eps_step(eid, trace);
    }
    trace
}

/// The weak equivalence `ParseN ≈ ParseD` of Construction 4.10, as a pair
/// of transformers between the accepting-trace grammars.
pub fn trace_weak_equiv(nfa: &Nfa, det: &Determinized) -> WeakEquiv {
    let ntg = nfa.trace_grammar();
    let dtg = det.dfa.trace_grammar();
    let parse_n = ntg.trace(nfa.init());
    let parse_d = dtg.trace(det.dfa.init(), true);

    let dfa_f = det.dfa.clone();
    let dtg_f = dtg.clone();
    let fwd = Transformer::from_fn("NtoD", parse_n.clone(), parse_d.clone(), move |t| {
        let w = t.flatten();
        let (b, tree) = parse_dfa(&dfa_f, &dtg_f, dfa_f.init(), &w);
        if !b {
            return Err(TransformError::Custom(format!(
                "determinization lost the string {w}"
            )));
        }
        Ok(tree)
    });

    let nfa_b = nfa.clone();
    let bwd = Transformer::from_fn("DtoN", parse_d, parse_n, move |t| {
        let w = t.flatten();
        let trace = least_accepting_trace(&nfa_b, &w);
        Ok(trace.to_parse_tree(&nfa_b, &ntg, nfa_b.init()))
    });
    WeakEquiv::new(fwd, bwd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::fig5_nfa;
    use lambek_core::grammar::parse_tree::validate;
    use lambek_core::theory::unambiguous::all_strings;

    #[test]
    fn determinize_preserves_language() {
        let (nfa, _) = fig5_nfa();
        let det = determinize(&nfa);
        let s = nfa.alphabet().clone();
        for w in all_strings(&s, 5) {
            assert_eq!(nfa.accepts(&w), det.dfa.accepts(&w), "{w}");
        }
    }

    #[test]
    fn initial_subset_is_eps_closed_init() {
        let (nfa, _) = fig5_nfa();
        let det = determinize(&nfa);
        assert_eq!(det.subsets[0], BTreeSet::from([0, 1]));
    }

    #[test]
    fn least_trace_is_valid_and_yields_w() {
        let (nfa, _) = fig5_nfa();
        let s = nfa.alphabet().clone();
        for w in ["b", "ab", "aab", "c"] {
            let w = s.parse_str(w).unwrap();
            let trace = least_accepting_trace(&nfa, &w);
            assert!(trace.is_valid_from(&nfa, nfa.init()), "{w}");
            assert_eq!(trace.yield_string(&nfa), w, "{w}");
        }
    }

    #[test]
    fn construction_4_10_weak_equivalence() {
        let (nfa, _) = fig5_nfa();
        let det = determinize(&nfa);
        let eq = trace_weak_equiv(&nfa, &det);
        let s = nfa.alphabet().clone();
        let ntg = nfa.trace_grammar();
        let dtg = det.dfa.trace_grammar();
        for w in all_strings(&s, 4) {
            if !nfa.accepts(&w) {
                continue;
            }
            // fwd on the least NFA trace.
            let trace = least_accepting_trace(&nfa, &w);
            let nt = trace.to_parse_tree(&nfa, &ntg, nfa.init());
            let dt = eq.fwd.apply_checked(&nt).unwrap();
            validate(&dt, &dtg.trace(det.dfa.init(), true), &w).unwrap();
            // bwd back.
            let nt2 = eq.bwd.apply_checked(&dt).unwrap();
            validate(&nt2, &ntg.trace(nfa.init()), &w).unwrap();
            // DtoN ∘ NtoD is the identity on least traces (the choice
            // function picks the least trace).
            assert_eq!(nt2, nt, "{w}");
        }
    }

    #[test]
    fn ambiguous_nfa_determinizes_to_unambiguous_dfa() {
        use lambek_core::alphabet::Alphabet;
        let sigma = Alphabet::abc();
        let a = sigma.symbol("a").unwrap();
        let mut nfa = Nfa::new(sigma.clone(), 3, 0);
        nfa.set_accepting(1, true);
        nfa.set_accepting(2, true);
        nfa.add_transition(0, a, 1);
        nfa.add_transition(0, a, 2);
        let det = determinize(&nfa);
        let w = sigma.parse_str("a").unwrap();
        assert!(det.dfa.accepts(&w));
        // Both NFA traces map to the same DFA trace; DtoN picks the least.
        let trace = least_accepting_trace(&nfa, &w);
        assert_eq!(trace, NfaTrace::step(0, NfaTrace::Stop));
    }

    /// The keyword-vs-identifier union NFA both tag tests share: rule 0
    /// is the keyword `if`, rule 1 is the identifier `(i|f|x)+`, glued
    /// under a fresh ε-start — the canonical overlapping-rules shape of
    /// a lexer. Returns the NFA and its per-state tag table.
    fn keyword_vs_identifier() -> (Nfa, Vec<Option<usize>>) {
        use lambek_core::alphabet::Alphabet;
        let sigma = Alphabet::from_chars("ifx");
        let i = sigma.symbol("i").unwrap();
        let f = sigma.symbol("f").unwrap();
        // 0 = start, 1-3 keyword chain, 4-5 identifier loop.
        let mut nfa = Nfa::new(sigma.clone(), 6, 0);
        nfa.add_eps(0, 1);
        nfa.add_transition(1, i, 2);
        nfa.add_transition(2, f, 3);
        nfa.set_accepting(3, true); // "if" accepted by rule 0
        nfa.add_eps(0, 4);
        for c in sigma.symbols() {
            nfa.add_transition(4, c, 5);
            nfa.add_transition(5, c, 5);
        }
        nfa.set_accepting(5, true); // any nonempty word, rule 1
        let mut tags = vec![None; 6];
        tags[3] = Some(0);
        tags[5] = Some(1);
        (nfa, tags)
    }

    #[test]
    fn determinize_resolves_tag_conflicts_by_priority() {
        // After consuming "if" the subset holds both rules' accept
        // states; the keyword (rule 0, higher priority) must win. Plain
        // identifiers keep rule 1's tag.
        let (nfa, tags) = keyword_vs_identifier();
        let det = determinize_tagged(&nfa, &tags);
        let s = nfa.alphabet().clone();
        let tag_after = |txt: &str| {
            let w = s.parse_str(txt).unwrap();
            det.dfa.accept_tag(det.dfa.final_state(det.dfa.init(), &w))
        };
        assert_eq!(tag_after("if"), Some(0), "keyword beats identifier");
        assert_eq!(tag_after("i"), Some(1));
        assert_eq!(tag_after("ifx"), Some(1), "longer than the keyword");
        assert_eq!(tag_after("x"), Some(1));
        assert_eq!(tag_after(""), None, "nothing matches ε");
        assert!(det.dfa.is_tagged());
    }

    #[test]
    fn minimize_preserves_highest_priority_tags() {
        use crate::minimize::minimize;
        let (nfa, tags) = keyword_vs_identifier();
        let det = determinize_tagged(&nfa, &tags);
        let min = minimize(&det.dfa);
        assert!(min.num_states() <= det.dfa.num_states());
        let s = nfa.alphabet().clone();
        for txt in ["", "i", "if", "iff", "ifx", "x", "fi", "xxif"] {
            let w = s.parse_str(txt).unwrap();
            let before = det.dfa.accept_tag(det.dfa.final_state(det.dfa.init(), &w));
            let after = min.accept_tag(min.final_state(min.init(), &w));
            assert_eq!(before, after, "{txt}");
            assert_eq!(det.dfa.accepts(&w), min.accepts(&w), "{txt}");
        }
        // The two distinctly-tagged accepting behaviours survive: "if"
        // and "i" end in different minimized states despite the same
        // accept bit.
        let at = |txt: &str| min.final_state(min.init(), &s.parse_str(txt).unwrap());
        assert_ne!(at("if"), at("i"), "tags refine the partition");
    }

    #[test]
    fn eps_chains_are_followed() {
        use lambek_core::alphabet::Alphabet;
        let sigma = Alphabet::abc();
        let a = sigma.symbol("a").unwrap();
        // 0 -ε-> 1 -ε-> 2 -a-> 3(acc)
        let mut nfa = Nfa::new(sigma.clone(), 4, 0);
        nfa.set_accepting(3, true);
        let e01 = nfa.add_eps(0, 1);
        let e12 = nfa.add_eps(1, 2);
        let t = nfa.add_transition(2, a, 3);
        let w = sigma.parse_str("a").unwrap();
        let trace = least_accepting_trace(&nfa, &w);
        assert_eq!(
            trace,
            NfaTrace::eps_step(
                e01,
                NfaTrace::eps_step(e12, NfaTrace::step(t, NfaTrace::Stop))
            )
        );
        let det = determinize(&nfa);
        assert!(det.dfa.accepts(&w));
    }
}
