//! Eager derivative tables: every Brzozowski derivative of a regex, built
//! once into a dense, immutable transition table.
//!
//! [`derivative::matches`](crate::derivative::matches) re-derives the
//! regex character by character on every call — fine as the baseline
//! and the oracle, too slow to run once per lexeme inside the lex
//! certifier. [`DerivTable`] decides the same membership by the same
//! derivatives, but computes all of them up front: a regex has finitely
//! many derivatives up to ACI similarity of `|` (Brzozowski 1964; Owens,
//! Reppy & Turon, JFP 2009), so a worklist over
//! [`normalize`]d derivatives reaches a fixed point, and matching
//! becomes one array load per character with no hashing, no allocation
//! and no shared mutable state.
//!
//! Three things keep the exploration small and terminating:
//!
//! * **ACI normalization** ([`normalize`]): alternations are flattened,
//!   `∅` operands dropped, operands sorted and deduplicated. Without it
//!   equal languages reappear as ever-larger, differently nested
//!   alternations and the exploration need not stop. Concatenations are
//!   also flattened and re-associated to the right, so a derivative of
//!   a long literal peels one factor off the front instead of rebuilding
//!   the whole left spine.
//! * **Symbol classes** ([`SymbolClasses::of_regex`]): symbols the regex
//!   cannot tell apart share one column, so each state takes one
//!   derivative per class, not per symbol. The classes are read off the
//!   regex's own syntax tree, never off an automaton.
//! * **The class quotient**: before exploring, every maximal group of
//!   `Char` leaves (a lone `Char` or an all-`Char` alternation, such as
//!   a character class) is lowered to the alternation of its classes'
//!   representatives. No group splits a class, so the quotient's
//!   derivatives by representatives are the regex's own, with one leaf
//!   per class instead of one per symbol: json.g's `STR` rule drops
//!   from 386 nodes to 42, and `[a-z][a-z0-9]*` derives as a
//!   three-leaf `a(a|0)*`. The lowering reads only the rule's syntax
//!   tree and its own classes.
//!
//! The caller caps the build in *state units*. A state costs one unit
//! per [`NODES_PER_STATE`] syntax nodes it derives, counted over every
//! class, and at least one; so one cap bounds the number of states, the
//! syntax the build holds and the derivative work it does. A regex whose
//! table would exceed the cap comes back as [`StateCapExceeded`].

use std::collections::HashMap;
use std::fmt;

use lambek_core::alphabet::{Alphabet, Symbol};

use crate::ast::Regex;
use crate::derivative::derivative;

/// The state of the derivative `∅`, interned first in every table: a
/// walk that reaches it can stop. Its premultiplied id is 0 too.
const DEAD: u32 = 0;

/// The premultiplied id `state × stride` of a table with rows of
/// `stride` entries, `None` when it does not fit `u32`.
fn premultiply(state: usize, stride: usize) -> Option<u32> {
    state
        .checked_mul(stride)
        .and_then(|id| u32::try_from(id).ok())
}

/// The derived syntax nodes one state unit of the cap pays for: a state
/// of `size` nodes explored over `classes` classes costs
/// `⌈size × classes / NODES_PER_STATE⌉` units, at least one. A literal
/// of `n` characters has `n` derivatives of `n²/2` nodes in all, so a
/// cap on states alone would bound neither memory nor build time.
pub const NODES_PER_STATE: usize = 16;

/// ACI-normalizes `re`, bottom-up: every alternation is flattened, its
/// `∅` operands dropped and the rest sorted and deduplicated; every
/// concatenation is flattened, its `ε` factors dropped (or the whole
/// collapsed to `∅` if a factor is `∅`) and re-associated to the right.
/// The result denotes the same language, and similar regexes normalize
/// to equal ones.
pub fn normalize(re: Regex) -> Regex {
    match re {
        Regex::Empty | Regex::Eps | Regex::Char(_) => re,
        Regex::Star(inner) => Regex::star(normalize(*inner)),
        Regex::Concat(..) => {
            let mut factors = Vec::new();
            if !flatten_concat(re, &mut factors) {
                return Regex::Empty;
            }
            fold_right(factors, Regex::Eps, Regex::concat)
        }
        Regex::Alt(..) => {
            let mut operands = Vec::new();
            flatten_alt(re, &mut operands);
            operands.sort_unstable();
            operands.dedup();
            fold_right(operands, Regex::Empty, Regex::alt)
        }
    }
}

/// `unit` for no items, the item for one, else `join(x₁, join(x₂, …))`.
fn fold_right(items: Vec<Regex>, unit: Regex, join: fn(Regex, Regex) -> Regex) -> Regex {
    let mut rest = items.into_iter().rev();
    match rest.next() {
        None => unit,
        Some(last) => rest.fold(last, |acc, item| join(item, acc)),
    }
}

/// Pushes the normalized, non-`∅` operands of an alternation chain.
fn flatten_alt(re: Regex, out: &mut Vec<Regex>) {
    match re {
        Regex::Alt(l, r) => {
            flatten_alt(*l, out);
            flatten_alt(*r, out);
        }
        other => match normalize(other) {
            Regex::Empty => {}
            Regex::Alt(l, r) => {
                flatten_alt(*l, out);
                flatten_alt(*r, out);
            }
            op => out.push(op),
        },
    }
}

/// Pushes the normalized, non-`ε` factors of a concatenation chain;
/// `false` if some factor is `∅`.
fn flatten_concat(re: Regex, out: &mut Vec<Regex>) -> bool {
    match re {
        Regex::Concat(l, r) => flatten_concat(*l, out) && flatten_concat(*r, out),
        other => match normalize(other) {
            Regex::Empty => false,
            Regex::Eps => true,
            Regex::Concat(l, r) => flatten_concat(*l, out) && flatten_concat(*r, out),
            factor => {
                out.push(factor);
                true
            }
        },
    }
}

/// A partition of the alphabet into classes of symbols one regex cannot
/// tell apart: every derivative of the regex by one member of a class
/// equals its derivative by any other member, up to [`normalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolClasses {
    /// Symbol index → class.
    class_of: Vec<u32>,
    /// Class → one member, the symbol the table derives by.
    reps: Vec<Symbol>,
}

impl SymbolClasses {
    /// The classes of `re` over an alphabet of `alphabet_len` symbols.
    ///
    /// A symbol's *signature* is the set of maximal all-`Char`
    /// alternations, and of lone `Char` leaves, of `re` that contain it.
    /// Symbols with equal signatures form one class: such symbols occur
    /// in `re` only side by side inside the same alternations, so
    /// deriving by either yields the same regex up to operand order.
    /// Symbols that `re` never mentions share the empty signature.
    pub fn of_regex(re: &Regex, alphabet_len: usize) -> SymbolClasses {
        let groups = char_alternations(re);
        let width = groups
            .iter()
            .flat_map(|(_, group)| group)
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0)
            .max(alphabet_len);
        // Every symbol starts in the class of the empty signature; each
        // group then moves its members, class by class, to a fresh label,
        // so two symbols end with one label iff the same groups hold
        // them. (The automaton pipeline refines its own partitions the
        // same way; the certifier keeps a copy so that it shares no code
        // with what it checks.)
        let mut label = vec![0u32; width];
        // Per label: the group that last moved its members, and where to.
        let mut moved: Vec<(usize, u32)> = vec![(0, 0)];
        for (g, (_, group)) in groups.iter().enumerate() {
            for sym in group {
                let old = label[sym.index()] as usize;
                if moved[old].0 != g + 1 {
                    let fresh = moved.len() as u32;
                    moved[old] = (g + 1, fresh);
                    moved.push((g + 1, fresh));
                }
                label[sym.index()] = moved[old].1;
            }
        }
        // Number the classes by least member, which represents the class.
        let mut renumber = vec![u32::MAX; moved.len()];
        let mut reps = Vec::new();
        let class_of = label
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let k = &mut renumber[l as usize];
                if *k == u32::MAX {
                    *k = reps.len() as u32;
                    reps.push(Symbol::from_index(i));
                }
                *k
            })
            .collect();
        SymbolClasses { class_of, reps }
    }

    /// One class per symbol: the unpartitioned alphabet.
    pub fn singletons(alphabet_len: usize) -> SymbolClasses {
        SymbolClasses {
            class_of: (0..alphabet_len as u32).collect(),
            reps: (0..alphabet_len).map(Symbol::from_index).collect(),
        }
    }

    /// The number of classes.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// `true` when the partitioned alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// The class of `sym`, or `None` for a symbol beyond the partitioned
    /// alphabet (which the regex cannot mention).
    #[inline]
    pub fn class_of(&self, sym: Symbol) -> Option<usize> {
        self.class_of.get(sym.index()).map(|&k| k as usize)
    }
}

/// The class quotient of `re`: each maximal lone `Char` or all-`Char`
/// alternation becomes the alternation of the distinct representatives
/// of its members' classes (a symbol outside the partition stays
/// itself). Each class lies wholly inside or outside each group, so
/// deriving the quotient by a class's representative lowers the
/// derivative of `re` by any member, and the table decides the same
/// language over regexes with one leaf per class instead of one per
/// symbol.
///
/// `reps` is scratch space, left as it was found.
fn quotient(re: &Regex, classes: &SymbolClasses, reps: &mut Vec<Symbol>) -> Regex {
    let start = reps.len();
    lower(re, classes, reps).unwrap_or_else(|| group(reps, start))
}

/// [`quotient`], except that a lone `Char` or all-`Char` alternation
/// comes back as `None` with its members' representatives pushed onto
/// `reps`, for an enclosing alternation to collect.
fn lower(re: &Regex, classes: &SymbolClasses, reps: &mut Vec<Symbol>) -> Option<Regex> {
    match re {
        Regex::Char(c) => {
            reps.push(classes.class_of(*c).map_or(*c, |k| classes.reps[k]));
            None
        }
        Regex::Empty | Regex::Eps => Some(re.clone()),
        Regex::Star(inner) => Some(Regex::star(quotient(inner, classes, reps))),
        Regex::Concat(l, r) => Some(Regex::concat(
            quotient(l, classes, reps),
            quotient(r, classes, reps),
        )),
        Regex::Alt(l, r) => {
            let start = reps.len();
            let left = lower(l, classes, reps);
            let mid = reps.len();
            let right = lower(r, classes, reps);
            if left.is_none() && right.is_none() {
                return None;
            }
            let right = right.unwrap_or_else(|| group(reps, mid));
            let left = left.unwrap_or_else(|| group(reps, start));
            Some(Regex::alt(left, right))
        }
    }
}

/// The alternation of the distinct symbols in `reps[from..]`, which it
/// removes.
fn group(reps: &mut Vec<Symbol>, from: usize) -> Regex {
    let mut members: Vec<Symbol> = reps.drain(from..).collect();
    members.sort_unstable();
    members.dedup();
    let mut rest = members.into_iter().rev().map(Regex::Char);
    let last = rest.next().expect("a group has a member");
    rest.fold(last, |acc, c| Regex::alt(c, acc))
}

/// The maximal lone `Char`s and all-`Char` alternations of `re`, each
/// with its members left to right, found in one bottom-up pass.
pub(crate) fn char_alternations(re: &Regex) -> Vec<(&Regex, Vec<Symbol>)> {
    let mut groups = Vec::new();
    if char_alternation(re, &mut groups) {
        groups.push((re, leaves(re)));
    }
    groups
}

/// Whether `re` is a lone `Char` or an all-`Char` alternation; if not,
/// the maximal such subterms below it are pushed onto `groups`, each
/// with its members.
fn char_alternation<'r>(re: &'r Regex, groups: &mut Vec<(&'r Regex, Vec<Symbol>)>) -> bool {
    let children: [Option<&'r Regex>; 2] = match re {
        Regex::Char(_) => return true,
        Regex::Empty | Regex::Eps => return false,
        Regex::Star(inner) => [Some(inner), None],
        Regex::Concat(l, r) | Regex::Alt(l, r) => [Some(l), Some(r)],
    };
    let whole = children.map(|child| child.is_some_and(|c| char_alternation(c, groups)));
    if matches!(re, Regex::Alt(..)) && whole == [true, true] {
        return true;
    }
    for (child, whole) in children.into_iter().zip(whole) {
        if let (Some(child), true) = (child, whole) {
            groups.push((child, leaves(child)));
        }
    }
    false
}

/// The `Char` leaves of an all-`Char` alternation, left to right.
fn leaves(re: &Regex) -> Vec<Symbol> {
    fn go(re: &Regex, out: &mut Vec<Symbol>) {
        match re {
            Regex::Char(c) => out.push(*c),
            Regex::Alt(l, r) => {
                go(l, out);
                go(r, out);
            }
            _ => unreachable!("not an all-Char alternation"),
        }
    }
    let mut out = Vec::new();
    go(re, &mut out);
    out
}

/// A table build would exceed its cap of state units (see
/// [`NODES_PER_STATE`] for what a state costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCapExceeded {
    /// The cap the build was given.
    pub cap: usize,
    /// The units the build had spent when it stopped, the state it
    /// refused included: always more than `cap`.
    pub needed: usize,
}

impl fmt::Display for StateCapExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "derivative table needs {} state units, over the cap of {} \
             (a state costs one unit per {NODES_PER_STATE} regex nodes it derives)",
            self.needed, self.cap
        )
    }
}

impl std::error::Error for StateCapExceeded {}

/// Every derivative of one regex, as a dense `state × class` table.
///
/// State ids are premultiplied: a state's id is the offset of its row,
/// `state × (classes + 1)`. Column 0 of a row says whether the
/// derivative accepts ε, and column `k + 1` holds the id reached on
/// class `k`, so a walk steps with one add and one load and reads
/// acceptance off the row it ends on.
///
/// Immutable once built, so it is `Send + Sync` and shared by reference
/// with no lock.
#[derive(Debug, Clone)]
pub struct DerivTable {
    classes: SymbolClasses,
    /// The state of the regex itself (premultiplied).
    start: u32,
    /// Row-major `state × (1 + classes.len())`: nullability, then the
    /// premultiplied transitions.
    delta: Vec<u32>,
    /// The state units the build spent.
    cost: usize,
}

impl DerivTable {
    /// Explores the [`normalize`]d derivatives of `re`'s class quotient
    /// (each group of `Char` leaves lowered to its classes'
    /// representatives), one per class of `classes` from each state, to
    /// a fixed point. Every class of `classes` must lie wholly inside
    /// or wholly outside each such group, as [`SymbolClasses::of_regex`]
    /// and [`SymbolClasses::singletons`] guarantee.
    ///
    /// # Errors
    ///
    /// [`StateCapExceeded`] if the states, the `∅` state included, would
    /// cost more than `cap` units.
    ///
    /// # Panics
    ///
    /// If the premultiplied ids overflow `u32`. A state costs at least
    /// `⌈classes / 16⌉` units, so the table's `states × (classes + 1)`
    /// entries are at most 17 × `cap`, and no cap up to 2²⁷ reaches it.
    pub fn build(
        re: &Regex,
        classes: SymbolClasses,
        cap: usize,
    ) -> Result<DerivTable, StateCapExceeded> {
        let mut states: Vec<Regex> = Vec::new();
        let mut index: HashMap<Regex, u32> = HashMap::new();
        let mut cost = 0;
        let mut intern = |re: Regex, states: &mut Vec<Regex>, cost: &mut usize| {
            if let Some(&id) = index.get(&re) {
                return Ok(id);
            }
            *cost += (re.size() * classes.len()).div_ceil(NODES_PER_STATE).max(1);
            if *cost > cap {
                return Err(StateCapExceeded { cap, needed: *cost });
            }
            let id = states.len() as u32;
            index.insert(re.clone(), id);
            states.push(re);
            Ok(id)
        };
        intern(Regex::Empty, &mut states, &mut cost)?;
        let start = intern(
            normalize(quotient(re, &classes, &mut Vec::new())),
            &mut states,
            &mut cost,
        )?;
        // Rows of plain ids first: the stride is known now, the number
        // of states only at the fixed point.
        let stride = classes.len() + 1;
        let mut delta = Vec::new();
        let mut next = 0;
        while next < states.len() {
            delta.push(u32::from(states[next].nullable()));
            for &rep in &classes.reps {
                let d = normalize(derivative(&states[next], rep));
                delta.push(intern(d, &mut states, &mut cost)?);
            }
            next += 1;
        }
        premultiply(states.len() - 1, stride).expect("premultiplied state ids fit u32");
        for row in delta.chunks_exact_mut(stride) {
            for t in &mut row[1..] {
                *t *= stride as u32;
            }
        }
        Ok(DerivTable {
            classes,
            start: start * stride as u32,
            delta,
            cost,
        })
    }

    /// The number of states, the `∅` state included.
    pub fn num_states(&self) -> usize {
        self.delta.len() / (self.classes.len() + 1)
    }

    /// The state units the build spent (see [`NODES_PER_STATE`]).
    pub fn cost(&self) -> usize {
        self.cost
    }

    /// Whether the regex matches `text`, read as one symbol of
    /// `alphabet` per character; a character outside `alphabet` does
    /// not match. This is the per-lexeme walk of the lex certifier.
    ///
    /// The walk reads bytes: an ASCII byte goes through the alphabet's
    /// ASCII map, and only a byte ≥ 0x80 decodes a character. Then
    /// symbol → class → the premultiplied row, stopping at `∅`.
    #[inline]
    pub fn matches_str(&self, alphabet: &Alphabet, text: &str) -> bool {
        let bytes = text.as_bytes();
        let mut state = self.start;
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            let sym = if b < 0x80 {
                i += 1;
                alphabet.symbol_of_char(char::from(b))
            } else {
                let c = text[i..].chars().next().expect("a char boundary");
                i += c.len_utf8();
                alphabet.symbol_of_char(c)
            };
            let Some(k) = sym.and_then(|sym| self.classes.class_of(sym)) else {
                return false;
            };
            state = self.delta[state as usize + 1 + k];
            if state == DEAD {
                return false;
            }
        }
        self.delta[state as usize] != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_regex;
    use crate::derivative::matches;

    #[test]
    fn normalization_identifies_aci_similar_alternations() {
        let s = Alphabet::abc();
        let left = parse_regex(&s, "(c|a)|(b|a|∅)").unwrap();
        let right = parse_regex(&s, "b|(a|c)").unwrap();
        assert_eq!(normalize(left), normalize(right));
    }

    #[test]
    fn classes_merge_symbols_the_regex_cannot_tell_apart() {
        let s = Alphabet::from_chars("abcdef");
        // a and b only ever occur together; c and d appear in one
        // alternation each; e and f never occur.
        let re = parse_regex(&s, "(a|b|c)*(a|b|d)").unwrap();
        let classes = SymbolClasses::of_regex(&re, s.len());
        let class = |c: &str| classes.class_of(s.symbol(c).unwrap()).unwrap();
        assert_eq!(class("a"), class("b"));
        assert_eq!(class("e"), class("f"));
        assert_ne!(class("a"), class("c"));
        assert_ne!(class("c"), class("d"));
        assert_eq!(classes.len(), 4);
    }

    #[test]
    fn a_small_cap_sheds_the_exponential_regex() {
        let s = Alphabet::from_chars("ab");
        // The fourth symbol from the end is an a: 2⁴ live states.
        let re = parse_regex(&s, "(a|b)*a(a|b)(a|b)(a|b)").unwrap();
        let classes = SymbolClasses::of_regex(&re, s.len());
        let shed = DerivTable::build(&re, classes.clone(), 8).unwrap_err();
        assert_eq!(shed.cap, 8);
        assert!(shed.needed > 8, "{shed}");
        let table = DerivTable::build(&re, classes, 1024).unwrap();
        assert!(table.num_states() > 8);
        assert!(table.cost() >= table.num_states());
        assert!(table.matches_str(&s, "babbb"));
        assert!(!table.matches_str(&s, "bbabb"));
    }

    #[test]
    fn the_byte_walk_agrees_with_the_derivative_matcher() {
        // ASCII and non-ASCII members side by side; texts also carry
        // characters outside the alphabet, of one to four bytes.
        let s = Alphabet::from_chars("ab \u{e9}\u{3bb}\u{1f600}");
        let texts = [
            "",
            "a",
            "b",
            "ab",
            "a\u{3bb}",
            "\u{e9}a\u{3bb}",
            "a\u{e9}\u{3bb}\u{3bb}",
            "ab\u{e9}",
            "a\u{3bb}\u{3bb}\u{e9}",
            "\u{e9}\u{3bb}",
            "\u{3bb}\u{e9}",
            "  ab",
            " \u{1f600}b",
            "\u{1f600}\u{1f600}",
            "z\u{3bb}",
            "a\u{fc}\u{3bb}",
            "a\u{1f601}",
            "ab\u{7f}",
        ];
        let mut accepted = 0;
        for r in [
            "(a|\u{e9})*\u{3bb}",
            "a(b|\u{3bb})*\u{e9}*",
            "(\u{e9}|\u{3bb})(\u{e9}|\u{3bb})",
            "( |a)*b",
            "( |\u{1f600})*(b|\u{1f600})",
        ] {
            let re = parse_regex(&s, r).unwrap();
            let table =
                DerivTable::build(&re, SymbolClasses::of_regex(&re, s.len()), 1024).unwrap();
            for text in texts {
                let expected = s.parse_str(text).is_some_and(|w| matches(&re, &w));
                assert_eq!(table.matches_str(&s, text), expected, "{r} on {text:?}");
                accepted += usize::from(expected);
            }
        }
        assert!(accepted >= 10, "the texts exercise acceptance too");
    }

    #[test]
    fn premultiplied_ids_must_fit_u32() {
        let max = u32::MAX as usize;
        assert_eq!(premultiply(3, 5), Some(15));
        assert_eq!(premultiply(max / 7, 7), Some((max / 7 * 7) as u32));
        assert_eq!(premultiply(max / 7 + 1, 7), None, "past u32");
        assert_eq!(premultiply(usize::MAX, 2), None, "past usize");
        // A built table holds row offsets: multiples of its stride, each
        // the start of a row.
        let s = Alphabet::abc();
        let re = parse_regex(&s, "(a|b)*c(a|c)").unwrap();
        let table = DerivTable::build(&re, SymbolClasses::of_regex(&re, s.len()), 1024).unwrap();
        let stride = table.classes.len() + 1;
        assert_eq!(table.delta.len(), table.num_states() * stride);
        for t in table.delta.chunks_exact(stride).flat_map(|row| &row[1..]) {
            assert_eq!(*t as usize % stride, 0);
            assert!((*t as usize) < table.delta.len());
        }
    }
}
