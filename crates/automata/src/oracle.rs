//! The per-symbol subset construction and Moore minimization that the
//! class-level [`determinize`](crate::determinize) and
//! [`minimize`](crate::minimize) replaced, kept as the reference their
//! output is checked against: one step per alphabet symbol, each
//! successor subset hashed afresh, and a Moore round that hashes every
//! state's full successor row.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::dfa::Dfa;
use crate::minimize::trim;
use crate::nfa::{Nfa, StateId};

/// The subset construction over every symbol: the DFA and each state's
/// subset, with tags resolved to the minimum as in
/// [`determinize_tagged`](crate::determinize::determinize_tagged).
pub(crate) fn determinize(
    nfa: &Nfa,
    tags: Option<&[Option<usize>]>,
) -> (Dfa, Vec<BTreeSet<StateId>>) {
    let alphabet = nfa.alphabet().clone();
    let mut eps_adj: Vec<Vec<StateId>> = vec![Vec::new(); nfa.num_states()];
    for e in nfa.eps_transitions() {
        eps_adj[e.src].push(e.dst);
    }
    let mut moves: Vec<Vec<Vec<StateId>>> =
        vec![vec![Vec::new(); alphabet.len()]; nfa.num_states()];
    for t in nfa.transitions() {
        moves[t.src][t.label.index()].push(t.dst);
    }
    let close = |set: &mut BTreeSet<StateId>| {
        let mut stack: Vec<StateId> = set.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for &d in &eps_adj[s] {
                if set.insert(d) {
                    stack.push(d);
                }
            }
        }
    };
    let mut start = BTreeSet::from([nfa.init()]);
    close(&mut start);
    let mut subsets = vec![start.clone()];
    let mut index: HashMap<BTreeSet<StateId>, StateId> = HashMap::from([(start, 0)]);
    let mut delta: Vec<Vec<StateId>> = Vec::new();
    let mut queue: VecDeque<StateId> = VecDeque::from([0]);
    while let Some(d) = queue.pop_front() {
        let mut row = Vec::with_capacity(alphabet.len());
        for c in alphabet.symbols() {
            let mut next: BTreeSet<StateId> = subsets[d]
                .iter()
                .flat_map(|&s| moves[s][c.index()].iter().copied())
                .collect();
            close(&mut next);
            let id = match index.get(&next) {
                Some(&id) => id,
                None => {
                    let id = subsets.len();
                    subsets.push(next.clone());
                    index.insert(next, id);
                    queue.push_back(id);
                    id
                }
            };
            row.push(id);
        }
        delta.push(row);
    }
    let accepting = subsets
        .iter()
        .map(|set| set.iter().any(|&s| nfa.is_accepting(s)))
        .collect();
    let mut dfa = Dfa::new(alphabet, 0, accepting, delta);
    if let Some(tags) = tags {
        let dfa_tags = subsets
            .iter()
            .map(|set| set.iter().filter_map(|&s| tags[s]).min())
            .collect();
        dfa = dfa.with_tags(dfa_tags);
    }
    (dfa, subsets)
}

/// Moore's algorithm over every symbol: trim, seed the partition with
/// `(accepting, tag)`, and re-split by each state's full row of
/// successor classes until nothing splits.
pub(crate) fn minimize(dfa: &Dfa) -> Dfa {
    let dfa = trim(dfa);
    let alphabet = dfa.alphabet().clone();
    let n = dfa.num_states();
    let mut seed: HashMap<(bool, Option<usize>), usize> = HashMap::new();
    let mut class: Vec<usize> = (0..n)
        .map(|s| {
            let key = (dfa.is_accepting(s), dfa.accept_tag(s));
            let fresh = seed.len();
            *seed.entry(key).or_insert(fresh)
        })
        .collect();
    loop {
        let mut sig_index: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
        let mut next_class = vec![0; n];
        for s in 0..n {
            let sig = (
                class[s],
                alphabet
                    .symbols()
                    .map(|c| class[dfa.delta(s, c)])
                    .collect::<Vec<_>>(),
            );
            let fresh = sig_index.len();
            next_class[s] = *sig_index.entry(sig).or_insert(fresh);
        }
        if next_class == class {
            break;
        }
        class = next_class;
    }
    let num_classes = class.iter().max().map_or(0, |&m| m + 1);
    let mut rep: Vec<Option<StateId>> = vec![None; num_classes];
    for s in 0..n {
        rep[class[s]].get_or_insert(s);
    }
    let rep: Vec<StateId> = rep.into_iter().map(|r| r.expect("non-empty")).collect();
    let accepting = rep.iter().map(|&r| dfa.is_accepting(r)).collect();
    let tags = rep.iter().map(|&r| dfa.accept_tag(r)).collect();
    let delta = rep
        .iter()
        .map(|&r| alphabet.symbols().map(|c| class[dfa.delta(r, c)]).collect())
        .collect();
    Dfa::new(alphabet, class[dfa.init()], accepting, delta).with_tags(tags)
}

/// The backward fixpoint [`Dfa::live_states`] replaced: mark every
/// state with a live successor, and repeat until a pass marks none.
/// Quadratic on a chain, which gains one live state per pass.
pub(crate) fn live_states(dfa: &Dfa) -> Vec<bool> {
    let mut live: Vec<bool> = (0..dfa.num_states()).map(|s| dfa.is_accepting(s)).collect();
    loop {
        let mut changed = false;
        for s in 0..dfa.num_states() {
            if !live[s] && dfa.delta_row(s).iter().any(|&t| live[t]) {
                live[s] = true;
                changed = true;
            }
        }
        if !changed {
            return live;
        }
    }
}

mod equality {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use lambek_core::alphabet::{Alphabet, Symbol};

    use crate::determinize::{determinize as determinize_plain, determinize_tagged};
    use crate::dfa::Dfa;
    use crate::minimize::minimize as minimize_classes;
    use crate::nfa::Nfa;

    /// Checks the class-level constructions against the oracle: the
    /// same subsets, states, tags and transitions, numbered alike.
    fn assert_matches_oracle(nfa: &Nfa, tags: &[Option<usize>]) {
        let (dfa, subsets) = super::determinize(nfa, Some(tags));
        let det = determinize_tagged(nfa, tags);
        assert_eq!(det.dfa, dfa, "determinize_tagged");
        assert_eq!(det.subsets, subsets, "subsets");
        assert_eq!(
            minimize_classes(&det.dfa),
            super::minimize(&dfa),
            "minimize"
        );
        let (plain, _) = super::determinize(nfa, None);
        assert_eq!(determinize_plain(nfa).dfa, plain, "determinize");
    }

    /// A random tagged NFA over `symbols` symbols: up to 10 states,
    /// ε-edges, and labelled edges drawn as set fragments (a run of
    /// symbols, a random sample of the alphabet, or one symbol) so that
    /// classes are wide and overlap.
    fn random_tagged_nfa(symbols: usize, seed: u64) -> (Nfa, Vec<Option<usize>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let names: Vec<String> = (0..symbols).map(|i| format!("s{i}")).collect();
        let n = rng.gen_range(1..11usize);
        let mut nfa = Nfa::new(Alphabet::new(&names), n, 0);
        for _ in 0..rng.gen_range(0..2 * n) {
            nfa.add_eps(rng.gen_range(0..n), rng.gen_range(0..n));
        }
        for _ in 0..rng.gen_range(0..3 * n + 1) {
            let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let mut edge = |c: usize| {
                nfa.add_transition(src, Symbol::from_index(c), dst);
            };
            match rng.gen_range(0..3u8) {
                0 => {
                    let lo = rng.gen_range(0..symbols);
                    (lo..rng.gen_range(lo..symbols) + 1).for_each(&mut edge);
                }
                1 => (0..symbols)
                    .filter(|_| rng.gen_bool(0.5))
                    .for_each(&mut edge),
                _ => edge(rng.gen_range(0..symbols)),
            }
        }
        let mut tags = vec![None; n];
        for (s, tag) in tags.iter_mut().enumerate() {
            if rng.gen_bool(0.3) {
                nfa.set_accepting(s, true);
                *tag = rng.gen_bool(0.8).then(|| rng.gen_range(0..4usize));
            }
        }
        (nfa, tags)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn class_level_constructions_match_the_oracle_on_random_nfas(
            seed in 0u64..1_000_000,
            width in 0usize..4,
        ) {
            let (nfa, tags) = random_tagged_nfa([2, 3, 47, 98][width], seed);
            assert_matches_oracle(&nfa, &tags);
        }
    }

    /// The union NFA a lexer compiles: a fresh start state with an
    /// ε-edge into each rule's Thompson NFA, accept states tagged with
    /// the rule index.
    fn union_nfa(spec: &lambek_lex::LexSpec) -> (Nfa, Vec<Option<usize>>) {
        let sigma = spec.alphabet().clone();
        let mut nfa = Nfa::new(sigma.clone(), 1, 0);
        let mut tags = vec![None];
        for (rule, r) in spec.rules().iter().enumerate() {
            let th = regex_grammars::thompson::thompson(&sigma, &r.regex);
            let part = th.nfa();
            let base = nfa.num_states();
            for s in 0..part.num_states() {
                nfa.add_state();
                nfa.set_accepting(base + s, part.is_accepting(s));
                tags.push(part.is_accepting(s).then_some(rule));
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

    fn text_spec(text: &str) -> lambek_lex::LexSpec {
        let ast = lambek_frontend::parse_text(text).unwrap();
        lambek_frontend::elaborate(text, &ast).unwrap().spec
    }

    #[test]
    fn class_level_constructions_match_the_oracle_on_real_lexers() {
        let churn = "token NUM = [0-9]+ ;\ntoken ID = [a-z] [a-z0-9]* ;\n\
                     skip WS = [ \\n]+ ;\nE0 ::= E0 '+' E1 | E0 '<<' E1 | E1 ;\n\
                     E1 ::= E2 '**' E1 | E2 '->' E1 | E2 ;\n\
                     E2 ::= NUM | ID | '(' E0 ')' ;\n";
        let mut specs = vec![
            ("churn", text_spec(churn)),
            ("meta", lambek_frontend::meta_spec()),
        ];
        for (name, text) in lambek_frontend::presets::all() {
            specs.push((name, text_spec(text)));
        }
        for (name, spec) in &specs {
            let (nfa, tags) = union_nfa(spec);
            let (dfa, _) = super::determinize(&nfa, Some(&tags));
            assert!(dfa.column_classes().len() < spec.alphabet().len(), "{name}");
            assert_matches_oracle(&nfa, &tags);
        }
    }

    /// A random tagged DFA: up to 40 states over `symbols` symbols, a
    /// few accepting (some tagged), and transitions that favour a few
    /// targets and lower-numbered states, so rows repeat successors,
    /// dead regions occur and liveness often spreads over many sweeps.
    fn random_tagged_dfa(symbols: usize, seed: u64) -> Dfa {
        let mut rng = StdRng::seed_from_u64(seed);
        let names: Vec<String> = (0..symbols).map(|i| format!("s{i}")).collect();
        let n = rng.gen_range(1..41usize);
        let hubs = rng.gen_range(1..=n);
        let accepting: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.1)).collect();
        let tags = accepting
            .iter()
            .map(|&acc| (acc && rng.gen_bool(0.7)).then(|| rng.gen_range(0..4usize)))
            .collect();
        let delta = (0..n * symbols)
            .map(|i| match rng.gen_range(0..3u8) {
                0 => rng.gen_range(0..hubs),
                1 => rng.gen_range(0..=i / symbols),
                _ => rng.gen_range(0..n),
            })
            .collect();
        let init = rng.gen_range(0..n);
        Dfa::from_flat(Alphabet::new(&names), init, accepting, delta).with_tags(tags)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn live_states_match_the_fixpoint_on_random_tagged_dfas(
            seed in 0u64..1_000_000,
            width in 1usize..5,
        ) {
            let dfa = random_tagged_dfa([1, 2, 3, 17][width - 1], seed);
            prop_assert_eq!(dfa.live_states(), super::live_states(&dfa));
        }
    }

    /// `n` chain states `n-1 -a-> … -a-> 1 -a-> 0` (accepting), every
    /// other edge into a dead sink `n`. Numbered against the sweeps, so
    /// the fixpoint gains one live state per pass; `reversed` numbers it
    /// with them instead.
    fn chain(n: usize, reversed: bool) -> Dfa {
        let id = |s: usize| if reversed && s < n { n - 1 - s } else { s };
        let mut delta = vec![n; 2 * (n + 1)];
        for s in 1..n {
            delta[2 * id(s)] = id(s - 1);
        }
        let accepting = (0..=n).map(|s| s == id(0)).collect();
        Dfa::from_flat(Alphabet::from_chars("ab"), id(n - 1), accepting, delta)
    }

    #[test]
    fn live_states_cover_a_long_chain_in_one_search() {
        for reversed in [false, true] {
            let small = chain(8, reversed);
            assert_eq!(small.live_states(), super::live_states(&small));
            const N: usize = 100_000;
            let live = chain(N, reversed).live_states();
            assert!(
                live[..N].iter().all(|&l| l),
                "every chain state reaches the end"
            );
            assert!(!live[N], "the sink is dead");
        }
    }
}
