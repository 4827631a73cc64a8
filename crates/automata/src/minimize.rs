//! DFA minimization by partition refinement (Moore's algorithm, over
//! symbol classes).
//!
//! An extension beyond the paper used by the experiment harness: minimizing
//! the determinized automaton before building its trace parser shrinks the
//! trace grammar, and comparing minimized sizes gives the canonical-form
//! check used by the DFA-equivalence tests.

use crate::dfa::Dfa;
use crate::nfa::StateId;
use crate::partition::Refiner;

/// Removes states unreachable from the initial state.
pub fn trim(dfa: &Dfa) -> Dfa {
    let alphabet = dfa.alphabet().clone();
    let mut reached: Vec<bool> = vec![false; dfa.num_states()];
    let mut stack = vec![dfa.init()];
    reached[dfa.init()] = true;
    while let Some(s) = stack.pop() {
        for c in alphabet.symbols() {
            let t = dfa.delta(s, c);
            if !reached[t] {
                reached[t] = true;
                stack.push(t);
            }
        }
    }
    let mut remap: Vec<Option<StateId>> = vec![None; dfa.num_states()];
    let mut next = 0;
    for (s, &r) in reached.iter().enumerate() {
        if r {
            remap[s] = Some(next);
            next += 1;
        }
    }
    let mut accepting = Vec::with_capacity(next);
    let mut tags = Vec::with_capacity(next);
    let mut delta = Vec::with_capacity(next);
    for s in 0..dfa.num_states() {
        if remap[s].is_none() {
            continue;
        }
        accepting.push(dfa.is_accepting(s));
        tags.push(dfa.accept_tag(s));
        delta.push(
            alphabet
                .symbols()
                .map(|c| remap[dfa.delta(s, c)].expect("successor of reachable is reachable"))
                .collect(),
        );
    }
    Dfa::new(
        alphabet,
        remap[dfa.init()].expect("init is reachable"),
        accepting,
        delta,
    )
    .with_tags(tags)
}

/// Minimizes a DFA: trims unreachable states, then merges
/// behaviour-equivalent states by iterated partition refinement.
///
/// Accept *tags* (the lexing layer's rule priorities) refine the
/// initial partition: two states merge only if they agree on both the
/// accept bit and the tag, so minimization can never collapse a
/// higher-priority rule's accept state into a lower-priority one.
///
/// Refinement runs over the DFA's [column
/// classes](Dfa::column_classes), one column per class, so its cost
/// follows the number of classes rather than the alphabet's size. Each
/// round splits the blocks column by column on their successors'
/// blocks (Moore's algorithm) until a round splits nothing. States of
/// the result are numbered in order of their least original state.
pub fn minimize(dfa: &Dfa) -> Dfa {
    let classes = dfa.column_classes();
    let k = classes.len();
    // The reachable states, in index order, and their table over the
    // class representatives.
    let mut reached = vec![false; dfa.num_states()];
    let mut stack = vec![dfa.init()];
    reached[dfa.init()] = true;
    while let Some(s) = stack.pop() {
        for &c in classes.reps() {
            let t = dfa.delta(s, c);
            if !reached[t] {
                reached[t] = true;
                stack.push(t);
            }
        }
    }
    let states: Vec<StateId> = (0..dfa.num_states()).filter(|&s| reached[s]).collect();
    let mut remap = vec![0u32; dfa.num_states()];
    for (i, &s) in states.iter().enumerate() {
        remap[s] = i as u32;
    }
    let mut table = Vec::with_capacity(states.len() * k);
    for &s in &states {
        table.extend(classes.reps().iter().map(|&c| remap[dfa.delta(s, c)]));
    }
    // Seed: one block per (accepting, tag).
    let seed = |i: usize| {
        let s = states[i];
        dfa.accept_tag(s)
            .map_or(usize::from(dfa.is_accepting(s)), |t| t + 2)
    };
    let bound = (0..states.len()).map(seed).max().map_or(0, |m| m + 1);
    let mut refiner = Refiner::new(vec![0; states.len()], 1);
    refiner.split(bound, seed);
    let mut keys = vec![0u32; states.len()];
    loop {
        let mut split = false;
        for j in 0..k {
            let block = refiner.block();
            for (i, key) in keys.iter_mut().enumerate() {
                *key = block[table[i * k + j] as usize];
            }
            split |= refiner.split(refiner.blocks(), |i| keys[i] as usize);
        }
        if !split {
            break;
        }
    }
    // Number the blocks by their least state; that state represents its
    // block, and every member shares its tag, since tags seeded the
    // partition and refinement only splits.
    let block = refiner.block();
    let mut number = vec![u32::MAX; refiner.blocks()];
    let mut reps = Vec::with_capacity(refiner.blocks());
    for (i, &b) in block.iter().enumerate() {
        if number[b as usize] == u32::MAX {
            number[b as usize] = reps.len() as u32;
            reps.push(i);
        }
    }
    let mut delta = Vec::with_capacity(reps.len() * dfa.alphabet().len());
    let mut row = Vec::with_capacity(k);
    for &i in &reps {
        row.clear();
        row.extend(
            table[i * k..(i + 1) * k]
                .iter()
                .map(|&t| number[block[t as usize] as usize] as StateId),
        );
        classes.expand_row(&row, &mut delta);
    }
    let accepting = reps.iter().map(|&i| dfa.is_accepting(states[i])).collect();
    let tags = reps.iter().map(|&i| dfa.accept_tag(states[i])).collect();
    let init = number[block[remap[dfa.init()] as usize] as usize] as StateId;
    Dfa::from_flat(dfa.alphabet().clone(), init, accepting, delta).with_tags(tags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::fig5_dfa;
    use crate::equiv::equivalent;
    use lambek_core::alphabet::Alphabet;
    use lambek_core::theory::unambiguous::all_strings;

    #[test]
    fn minimize_preserves_language() {
        let dfa = fig5_dfa();
        let min = minimize(&dfa);
        let s = dfa.alphabet().clone();
        for w in all_strings(&s, 5) {
            assert_eq!(dfa.accepts(&w), min.accepts(&w), "{w}");
        }
        assert!(min.num_states() <= dfa.num_states());
    }

    #[test]
    fn redundant_states_are_merged() {
        // Two interchangeable accepting states.
        let sigma = Alphabet::from_chars("a");
        let a_row = |t: StateId| vec![t];
        let dfa = Dfa::new(
            sigma,
            0,
            vec![false, true, true],
            vec![a_row(1), a_row(2), a_row(1)],
        );
        let min = minimize(&dfa);
        assert_eq!(min.num_states(), 2);
        assert!(equivalent(&dfa, &min).is_none());
    }

    #[test]
    fn trim_drops_unreachable() {
        let sigma = Alphabet::from_chars("a");
        // State 2 unreachable.
        let dfa = Dfa::new(
            sigma,
            0,
            vec![false, true, true],
            vec![vec![1], vec![0], vec![2]],
        );
        let t = trim(&dfa);
        assert_eq!(t.num_states(), 2);
    }
}
