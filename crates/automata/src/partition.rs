//! Symbol classes and the partition refinement that computes them.
//!
//! Determinization and minimization never need to tell apart two
//! symbols the automaton treats alike, so both work over a
//! [`SymbolPartition`] of the alphabet: one step per class
//! representative, its row copied to every member. A lexer's automata
//! distinguish far fewer classes than symbols (json.g's minimized DFA:
//! 29 column classes of 98 symbols), so this is most of the saving.
//!
//! One refinement step computes both the DFA's column classes
//! ([`Dfa::column_classes`](crate::dfa::Dfa::column_classes)) and the
//! minimizer's state blocks: split every block by a key per element.

use lambek_core::alphabet::Symbol;

/// A partition of an alphabet into classes of symbols. Classes are
/// numbered in order of their least member, which is also the class's
/// representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolPartition {
    /// Symbol index → class.
    class_of: Vec<u32>,
    /// Class → its least member.
    reps: Vec<Symbol>,
}

impl SymbolPartition {
    /// The partition whose classes are the symbols with equal `labels`
    /// (one label per symbol).
    pub(crate) fn from_labels(labels: &[u32]) -> SymbolPartition {
        let bound = labels.iter().max().map_or(0, |&l| l as usize + 1);
        let mut renumber = vec![u32::MAX; bound];
        let mut reps = Vec::new();
        let class_of = labels
            .iter()
            .enumerate()
            .map(|(c, &l)| {
                let k = &mut renumber[l as usize];
                if *k == u32::MAX {
                    *k = reps.len() as u32;
                    reps.push(Symbol::from_index(c));
                }
                *k
            })
            .collect();
        SymbolPartition { class_of, reps }
    }

    /// The number of classes.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// `true` when the partitioned alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// The class of `sym`.
    #[inline]
    pub fn class_of(&self, sym: Symbol) -> usize {
        self.class_of[sym.index()] as usize
    }

    /// One representative per class, its least member, in class order.
    pub fn reps(&self) -> &[Symbol] {
        &self.reps
    }

    /// Expands a row indexed by class into one indexed by symbol,
    /// appending it to `out`.
    pub(crate) fn expand_row<T: Copy>(&self, row: &[T], out: &mut Vec<T>) {
        out.extend(self.class_of.iter().map(|&k| row[k as usize]));
    }
}

/// A partition of the elements `0..len` into blocks, refined by keys.
///
/// [`Refiner::split`] splits every block so that two of its elements
/// stay together only if they agree on the key. The part holding a
/// block's least element keeps the block's number; the other parts get
/// fresh numbers. A refinement never merges, so blocks are never empty.
#[derive(Debug)]
pub(crate) struct Refiner {
    /// Element → block.
    block: Vec<u32>,
    /// The elements grouped by block, ascending within each block.
    order: Vec<u32>,
    /// `order[start[b]..start[b + 1]]` are the elements of block `b`.
    start: Vec<u32>,
    /// Per key: the split that last met it and the block it sent that
    /// key's elements to.
    slot: Vec<(u32, u32)>,
    /// The number of the current split (0 is never used).
    stamp: u32,
}

impl Refiner {
    /// Starts from the partition `block` (element → block, every block
    /// in `0..blocks` non-empty).
    pub(crate) fn new(block: Vec<u32>, blocks: usize) -> Refiner {
        let mut refiner = Refiner {
            block,
            order: Vec::new(),
            start: Vec::new(),
            slot: Vec::new(),
            stamp: 0,
        };
        refiner.regroup(blocks);
        refiner
    }

    /// The number of blocks.
    pub(crate) fn blocks(&self) -> usize {
        self.start.len() - 1
    }

    /// Element → block.
    pub(crate) fn block(&self) -> &[u32] {
        &self.block
    }

    /// Consumes the refiner, returning element → block.
    pub(crate) fn into_blocks(self) -> Vec<u32> {
        self.block
    }

    /// Rebuilds `order` and `start` for `blocks` blocks (a counting
    /// sort of the elements by block).
    fn regroup(&mut self, blocks: usize) {
        self.start.clear();
        self.start.resize(blocks + 1, 0);
        for &b in &self.block {
            self.start[b as usize + 1] += 1;
        }
        for b in 0..blocks {
            self.start[b + 1] += self.start[b];
        }
        self.order.clear();
        self.order.resize(self.block.len(), 0);
        let mut cursor = self.start.clone();
        for (e, &b) in self.block.iter().enumerate() {
            self.order[cursor[b as usize] as usize] = e as u32;
            cursor[b as usize] += 1;
        }
    }

    /// Splits every block by `key` (each key below `bound`). Returns
    /// whether any block split.
    pub(crate) fn split(&mut self, bound: usize, key: impl Fn(usize) -> usize) -> bool {
        if self.slot.len() < bound {
            self.slot.resize(bound, (0, 0));
        }
        let old = self.blocks();
        let mut fresh = old as u32;
        for b in 0..old {
            let members = &self.order[self.start[b] as usize..self.start[b + 1] as usize];
            let first = key(members[0] as usize);
            if members[1..].iter().all(|&e| key(e as usize) == first) {
                continue;
            }
            self.stamp += 1;
            self.slot[first] = (self.stamp, b as u32);
            for &e in members {
                let slot = &mut self.slot[key(e as usize)];
                if slot.0 != self.stamp {
                    *slot = (self.stamp, fresh);
                    fresh += 1;
                }
                self.block[e as usize] = slot.1;
            }
        }
        if fresh as usize == old {
            return false;
        }
        self.regroup(fresh as usize);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_numbered_by_least_member() {
        let p = SymbolPartition::from_labels(&[7, 3, 7, 0, 3]);
        assert_eq!(p.len(), 3);
        let class = |i| p.class_of(Symbol::from_index(i));
        assert_eq!(
            (class(0), class(1), class(2), class(3), class(4)),
            (0, 1, 0, 2, 1)
        );
        assert_eq!(p.reps(), &[0, 1, 3].map(Symbol::from_index));
        let mut row = Vec::new();
        p.expand_row(&['x', 'y', 'z'], &mut row);
        assert_eq!(row, ['x', 'y', 'x', 'z', 'y']);
    }

    #[test]
    fn a_split_keeps_the_least_element_and_never_merges() {
        let mut r = Refiner::new(vec![0, 0, 1, 0, 1], 2);
        let keys = [5, 2, 5, 5, 5];
        assert!(r.split(6, |e| keys[e]));
        assert_eq!(r.block(), &[0, 2, 1, 0, 1]);
        assert_eq!(r.blocks(), 3);
        assert!(
            !r.split(6, |e| keys[e]),
            "a second split by the same key is a no-op"
        );
        assert!(!r.split(1, |_| 0));
    }
}
