//! The LALR(1) automaton over LR(0) cores, with lookaheads as bitsets.
//!
//! The construction is Knuth's LR(1) item-set collection with LALR-style
//! merging, phrased over the existing [`Cfg`] representation:
//!
//! * the grammar is *augmented* with a synthetic production `S' → S`
//!   (production index 0), so acceptance is one distinguished reduction;
//! * a state is its *kernel*: the sorted LR(0) core, `(prod, dot)`
//!   pairs, plus one lookahead bitset per kernel item. A bitset is
//!   `⌈(|Σ|+1)/64⌉` `u64` words, with the end-of-input marker `$` as the
//!   last column (`alphabet.len()`);
//! * FIRST(rhs[dot..]) as bits, and whether that suffix is nullable, are
//!   computed once per grammar for every `(prod, dot)`;
//! * the closure of a kernel predicts nonterminals, not LR(1) items:
//!   every predicted item `B → ·γ` shares one lookahead set, LA(B). A
//!   kernel item `A → α·Bβ` seeds LA(B) with FIRST(β), plus its own
//!   lookaheads when β is nullable; LA then propagates along left corners
//!   `B → ·Cδ` (FIRST(δ), plus LA(B) when δ is nullable) to a fixpoint
//!   over nonterminals. A nonterminal whose set stays empty is not
//!   predicted, exactly as the per-lookahead LR(1) closure never creates
//!   an item without a lookahead;
//! * [`build_lalr`] merges states *during* construction: successor
//!   kernels are keyed by their LR(0) core, lookahead bits are ORed into
//!   the existing state, and a state whose bits grew is re-enqueued until
//!   the fixpoint. The worklist is FIFO and successors are taken in
//!   [`GSym`] order, so state numbers are a function of the grammar alone
//!   and equal those of the per-lookahead LR(1) construction, which is
//!   kept as the `#[cfg(test)]` oracle below.

use std::collections::{HashMap, VecDeque};

use lambek_cfg::analysis::first_sets;
use lambek_cfg::earley::nullable_set;
use lambek_cfg::grammar::{Cfg, GSym};

/// Index of the synthetic augmented production `S' → S`.
pub(crate) const AUG_PROD: u32 = 0;

/// An LR(0) item: production `prod` with the dot before position `dot`.
pub(crate) type CoreItem = (u32, u16);

/// ORs `src` into `dst`; returns whether `dst` grew.
fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
    let mut grew = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        grew |= s & !*d != 0;
        *d |= s;
    }
    grew
}

/// Whether lookahead column `t` is in `bits`.
pub(crate) fn has_bit(bits: &[u64], t: usize) -> bool {
    bits[t / 64] >> (t % 64) & 1 == 1
}

/// The lookahead columns in `bits`, ascending.
pub(crate) fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(k, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                k * 64 + bit
            })
        })
    })
}

/// Side tables flattening a [`Cfg`] for table construction: a dense
/// production numbering (with the augmented production at index 0), the
/// FIRST/nullable facts of every production suffix as bitsets, and the
/// left-corner edges the closure fixpoint propagates along.
#[derive(Debug)]
pub(crate) struct GrammarIndex {
    /// `(nt, alt)` of production `p` for `p ≥ 1`.
    prod_nt_alt: Vec<(usize, usize)>,
    /// `prod_base[nt] + alt` is the production index of `(nt, alt)`.
    prod_base: Vec<usize>,
    /// The synthetic RHS `[N(start)]` of production 0.
    aug_rhs: [GSym; 1],
    /// The end-of-input lookahead: `alphabet.len()`.
    pub eof: u16,
    /// `u64` words per lookahead set.
    pub words: usize,
    /// `pos_base[p] + dot` numbers the position `(p, dot)`.
    pos_base: Vec<usize>,
    /// FIRST(rhs[dot..]) of every position, `words` each.
    suffix_first: Vec<u64>,
    /// Whether rhs[dot..] derives ε, per position.
    suffix_nullable: Vec<bool>,
    /// `left_corners[lc_base[b]..lc_base[b + 1]]` holds `(c, pos)` for
    /// every production `b → c δ`, `pos` being the position of δ.
    lc_base: Vec<usize>,
    left_corners: Vec<(usize, usize)>,
}

impl GrammarIndex {
    pub(crate) fn new(cfg: &Cfg) -> GrammarIndex {
        let n_nts = cfg.num_nonterminals();
        let eof = cfg.alphabet().len();
        let words = (eof + 1).div_ceil(64);
        let nullable = nullable_set(cfg);

        // FIRST of every nonterminal, as bits.
        let mut first = vec![0u64; n_nts * words];
        for (nt, set) in first_sets(cfg).iter().enumerate() {
            for c in set {
                first[nt * words + c.index() / 64] |= 1 << (c.index() % 64);
            }
        }

        let mut gi = GrammarIndex {
            prod_nt_alt: vec![(usize::MAX, usize::MAX)], // slot 0 = S' → S
            prod_base: Vec::with_capacity(n_nts),
            aug_rhs: [GSym::N(cfg.start())],
            eof: eof as u16,
            words,
            pos_base: Vec::new(),
            suffix_first: Vec::new(),
            suffix_nullable: Vec::new(),
            lc_base: Vec::with_capacity(n_nts + 1),
            left_corners: Vec::new(),
        };
        for nt in 0..n_nts {
            gi.prod_base.push(gi.prod_nt_alt.len());
            for alt in 0..cfg.alternatives(nt).len() {
                gi.prod_nt_alt.push((nt, alt));
            }
        }

        // Suffix facts, right to left within each production.
        let (mut pos_base, mut suffix_first, mut suffix_nullable) =
            (Vec::new(), Vec::new(), Vec::new());
        for p in 0..gi.num_prods() as u32 {
            let rhs = gi.rhs(cfg, p);
            let base = suffix_nullable.len();
            suffix_first.resize((base + rhs.len() + 1) * words, 0u64);
            suffix_nullable.resize(base + rhs.len() + 1, true);
            for (d, sym) in rhs.iter().enumerate().rev() {
                let (row, next) = ((base + d) * words, (base + d + 1) * words);
                suffix_nullable[base + d] = match *sym {
                    GSym::T(c) => {
                        suffix_first[row + c.index() / 64] |= 1 << (c.index() % 64);
                        false
                    }
                    GSym::N(m) => {
                        suffix_first[row..row + words]
                            .copy_from_slice(&first[m * words..(m + 1) * words]);
                        if nullable[m] {
                            for k in 0..words {
                                suffix_first[row + k] |= suffix_first[next + k];
                            }
                        }
                        nullable[m] && suffix_nullable[base + d + 1]
                    }
                };
            }
            pos_base.push(base);
        }
        gi.pos_base = pos_base;
        gi.suffix_first = suffix_first;
        gi.suffix_nullable = suffix_nullable;

        for b in 0..n_nts {
            gi.lc_base.push(gi.left_corners.len());
            for alt in 0..cfg.alternatives(b).len() {
                if let Some(&GSym::N(c)) = cfg.alternatives(b)[alt].rhs.first() {
                    let p = gi.prod_of(b, alt);
                    gi.left_corners.push((c, gi.pos_base[p as usize] + 1));
                }
            }
        }
        gi.lc_base.push(gi.left_corners.len());
        gi
    }

    /// Total number of productions, the synthetic one included.
    pub(crate) fn num_prods(&self) -> usize {
        self.prod_nt_alt.len()
    }

    /// The `(nt, alt)` behind production `p` (`p ≥ 1`).
    pub(crate) fn nt_alt(&self, p: u32) -> (usize, usize) {
        self.prod_nt_alt[p as usize]
    }

    /// The production index of `(nt, alt)`.
    pub(crate) fn prod_of(&self, nt: usize, alt: usize) -> u32 {
        (self.prod_base[nt] + alt) as u32
    }

    /// The right-hand side of production `p`.
    pub(crate) fn rhs<'g>(&'g self, cfg: &'g Cfg, p: u32) -> &'g [GSym] {
        if p == AUG_PROD {
            &self.aug_rhs
        } else {
            let (nt, alt) = self.nt_alt(p);
            &cfg.alternatives(nt)[alt].rhs
        }
    }

    /// FIRST(rhs[dot..]) of production `p`, and whether it is nullable.
    fn suffix(&self, p: u32, dot: u16) -> (&[u64], bool) {
        let pos = self.pos_base[p as usize] + dot as usize;
        (self.suffix_at(pos), self.suffix_nullable[pos])
    }

    fn suffix_at(&self, pos: usize) -> &[u64] {
        &self.suffix_first[pos * self.words..(pos + 1) * self.words]
    }
}

/// One LALR(1) state at the fixpoint.
#[derive(Debug)]
pub(crate) struct LalrState {
    /// The sorted LR(0) core of the kernel.
    pub kernel: Vec<CoreItem>,
    /// `words` lookahead bits per kernel item, in `kernel` order.
    pub kernel_la: Vec<u64>,
    /// The nonterminals the closure predicts, ascending: every
    /// production of each is an item `B → ·γ` of the state.
    pub predicted: Vec<usize>,
    /// LA(B) of each predicted nonterminal, `words` each.
    pub predicted_la: Vec<u64>,
    /// Successors on grammar symbols, in symbol order.
    pub edges: Vec<(GSym, usize)>,
}

impl LalrState {
    /// Every closed item of the state with its lookahead bits, sorted by
    /// core — for conflict reports; the table itself never expands them.
    pub(crate) fn items<'s>(&'s self, cfg: &Cfg, gi: &GrammarIndex) -> Vec<(CoreItem, &'s [u64])> {
        let w = gi.words;
        let mut out: Vec<(CoreItem, &[u64])> = self
            .kernel
            .iter()
            .enumerate()
            .map(|(i, &item)| (item, &self.kernel_la[i * w..(i + 1) * w]))
            .collect();
        for (j, &b) in self.predicted.iter().enumerate() {
            for alt in 0..cfg.alternatives(b).len() {
                out.push((
                    (gi.prod_of(b, alt), 0),
                    &self.predicted_la[j * w..(j + 1) * w],
                ));
            }
        }
        out.sort_unstable_by_key(|&(item, _)| item);
        out
    }
}

/// Scratch space for one state's closure: LA(B) for every nonterminal
/// and the worklist of the fixpoint. Reused across states.
struct Closure {
    words: usize,
    la: Vec<u64>,
    predicted: Vec<usize>,
    queue: Vec<usize>,
    queued: Vec<bool>,
    scratch: Vec<u64>,
}

impl Closure {
    fn new(n_nts: usize, words: usize) -> Closure {
        Closure {
            words,
            la: vec![0; n_nts * words],
            predicted: Vec::new(),
            queue: Vec::new(),
            queued: vec![false; n_nts],
            scratch: vec![0; words],
        }
    }

    fn la(&self, b: usize) -> &[u64] {
        &self.la[b * self.words..(b + 1) * self.words]
    }

    /// ORs `src` into LA(b) — and, when `nullable`, `extra` too — and
    /// queues `b` if its set grew.
    fn add(&mut self, b: usize, src: &[u64], nullable: bool, extra: &[u64]) {
        let row = &mut self.la[b * self.words..(b + 1) * self.words];
        let was_empty = row.iter().all(|&word| word == 0);
        let grew = or_into(row, src) | (nullable && or_into(row, extra));
        if grew {
            if was_empty {
                self.predicted.push(b);
            }
            if !self.queued[b] {
                self.queued[b] = true;
                self.queue.push(b);
            }
        }
    }

    /// Computes LA(B) for the closure of `kernel` (with lookaheads
    /// `kernel_la`), leaving the predicted nonterminals sorted.
    fn close(&mut self, cfg: &Cfg, gi: &GrammarIndex, kernel: &[CoreItem], kernel_la: &[u64]) {
        let w = self.words;
        for &b in &self.predicted {
            self.la[b * w..(b + 1) * w].fill(0);
        }
        self.predicted.clear();
        for (i, &(p, dot)) in kernel.iter().enumerate() {
            if let Some(&GSym::N(b)) = gi.rhs(cfg, p).get(dot as usize) {
                let (first, nullable) = gi.suffix(p, dot + 1);
                self.add(b, first, nullable, &kernel_la[i * w..(i + 1) * w]);
            }
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        while let Some(b) = self.queue.pop() {
            self.queued[b] = false;
            scratch.copy_from_slice(self.la(b));
            for &(c, pos) in &gi.left_corners[gi.lc_base[b]..gi.lc_base[b + 1]] {
                self.add(c, gi.suffix_at(pos), gi.suffix_nullable[pos], &scratch);
            }
        }
        self.scratch = scratch;
        self.predicted.sort_unstable();
    }
}

/// Where a successor item's lookaheads come from.
#[derive(Clone, Copy)]
enum Source {
    /// Kernel item `i` of the state being expanded.
    Kernel(usize),
    /// A production of the predicted nonterminal `b`.
    Predicted(usize),
}

/// Builds the LALR(1) collection by merged-core worklist iteration.
/// State 0 is the closure of `S' → · S , $`.
pub(crate) fn build_lalr(cfg: &Cfg, gi: &GrammarIndex) -> Vec<LalrState> {
    let w = gi.words;
    let start: Vec<CoreItem> = vec![(AUG_PROD, 0)];
    let mut start_la = vec![0u64; w];
    start_la[gi.eof as usize / 64] |= 1 << (gi.eof % 64);
    let mut by_core: HashMap<Vec<CoreItem>, usize> = HashMap::from([(start.clone(), 0)]);
    let mut states = vec![LalrState {
        kernel: start,
        kernel_la: start_la,
        predicted: Vec::new(),
        predicted_la: Vec::new(),
        edges: Vec::new(),
    }];

    let mut work: VecDeque<usize> = VecDeque::from([0]);
    let mut queued = vec![true];
    let mut closure = Closure::new(cfg.num_nonterminals(), w);
    let mut kernel_la: Vec<u64> = Vec::new();
    let mut moves: Vec<(GSym, CoreItem, Source)> = Vec::new();
    let mut core: Vec<CoreItem> = Vec::new();

    while let Some(idx) = work.pop_front() {
        queued[idx] = false;
        // The lookaheads this expansion reads: a snapshot, since a
        // self-loop merges into this very kernel below.
        kernel_la.clone_from(&states[idx].kernel_la);
        closure.close(cfg, gi, &states[idx].kernel, &kernel_la);

        moves.clear();
        for (i, &(p, dot)) in states[idx].kernel.iter().enumerate() {
            if let Some(&sym) = gi.rhs(cfg, p).get(dot as usize) {
                moves.push((sym, (p, dot + 1), Source::Kernel(i)));
            }
        }
        let state = &mut states[idx];
        state.predicted.clone_from(&closure.predicted);
        state.predicted_la.clear();
        for &b in &closure.predicted {
            state.predicted_la.extend_from_slice(closure.la(b));
            for alt in 0..cfg.alternatives(b).len() {
                if let Some(&sym) = cfg.alternatives(b)[alt].rhs.first() {
                    moves.push((sym, (gi.prod_of(b, alt), 1), Source::Predicted(b)));
                }
            }
        }
        // Grouped by the symbol after the dot, in symbol order: that
        // order numbers newly discovered states, and state numbering
        // must be a function of the grammar alone — sessions serialized
        // from one compile resume against tables from another.
        moves.sort_unstable_by_key(|&(sym, item, _)| (sym, item));
        state.edges.clear();

        for group in moves.chunk_by(|a, b| a.0 == b.0) {
            let sym = group[0].0;
            core.clear();
            core.extend(group.iter().map(|&(_, item, _)| item));
            let bits = |src: Source| match src {
                Source::Kernel(i) => &kernel_la[i * w..(i + 1) * w],
                Source::Predicted(b) => closure.la(b),
            };
            let target = match by_core.get(core.as_slice()) {
                Some(&t) => {
                    // LALR merge: OR the lookaheads into the existing
                    // state; if they grew, its successors must see the
                    // new lookaheads too.
                    let mut grew = false;
                    for (j, &(_, _, src)) in group.iter().enumerate() {
                        grew |= or_into(&mut states[t].kernel_la[j * w..(j + 1) * w], bits(src));
                    }
                    if grew && !queued[t] {
                        queued[t] = true;
                        work.push_back(t);
                    }
                    t
                }
                None => {
                    let t = states.len();
                    let mut la = Vec::with_capacity(group.len() * w);
                    for &(_, _, src) in group {
                        la.extend_from_slice(bits(src));
                    }
                    by_core.insert(core.clone(), t);
                    states.push(LalrState {
                        kernel: core.clone(),
                        kernel_la: la,
                        predicted: Vec::new(),
                        predicted_la: Vec::new(),
                        edges: Vec::new(),
                    });
                    queued.push(true);
                    work.push_back(t);
                    t
                }
            };
            states[idx].edges.push((sym, target));
        }
    }
    states
}

/// The per-lookahead LR(1) construction the bitset builder replaced,
/// kept as the reference its output is checked against.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

    use lambek_cfg::analysis::first_sets;
    use lambek_cfg::earley::nullable_set;
    use lambek_cfg::grammar::{Cfg, GSym};
    use lambek_core::alphabet::Symbol;

    use super::{GrammarIndex, AUG_PROD};

    /// An LR(1) item: production `prod` with the dot before position
    /// `dot`, valid under lookahead terminal `la` (`la == eof` is `$`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub(crate) struct Item {
        pub prod: u32,
        pub dot: u16,
        pub la: u16,
    }

    /// The LR(0) core of a kernel: dotted productions with lookaheads
    /// erased. This is the key LALR merging groups states by.
    type Core = Vec<(u32, u16)>;

    fn core_of(kernel: &BTreeSet<Item>) -> Core {
        let mut core: Core = kernel.iter().map(|i| (i.prod, i.dot)).collect();
        core.dedup();
        core
    }

    /// The FIRST/nullable fixpoints the per-item closure reads.
    struct Facts {
        first: Vec<BTreeSet<Symbol>>,
        nullable: Vec<bool>,
    }

    /// The lookaheads `FIRST(β a)` for a prediction out of an item whose
    /// dot sits before a nonterminal followed by `β`: the terminals that
    /// can begin `β`, plus `la` when `β` is nullable.
    fn prediction_lookaheads(facts: &Facts, beta: &[GSym], la: u16) -> BTreeSet<u16> {
        let mut out = BTreeSet::new();
        for sym in beta {
            match sym {
                GSym::T(c) => {
                    out.insert(c.index() as u16);
                    return out;
                }
                GSym::N(m) => {
                    out.extend(facts.first[*m].iter().map(|s| s.index() as u16));
                    if !facts.nullable[*m] {
                        return out;
                    }
                }
            }
        }
        out.insert(la);
        out
    }

    /// Saturates a kernel with the LR(1) prediction rule: for every item
    /// `A → α · B β , a`, add `B → · γ , b` for each production of `B`
    /// and each `b ∈ FIRST(β a)`.
    fn closure(cfg: &Cfg, gi: &GrammarIndex, facts: &Facts, kernel: &BTreeSet<Item>) -> Vec<Item> {
        let mut seen: BTreeSet<Item> = kernel.clone();
        let mut queue: VecDeque<Item> = kernel.iter().copied().collect();
        while let Some(item) = queue.pop_front() {
            let rhs = gi.rhs(cfg, item.prod);
            let Some(GSym::N(b)) = rhs.get(item.dot as usize) else {
                continue;
            };
            let beta = &rhs[item.dot as usize + 1..];
            for la in prediction_lookaheads(facts, beta, item.la) {
                for alt in 0..cfg.alternatives(*b).len() {
                    let predicted = Item {
                        prod: gi.prod_of(*b, alt),
                        dot: 0,
                        la,
                    };
                    if seen.insert(predicted) {
                        queue.push_back(predicted);
                    }
                }
            }
        }
        seen.into_iter().collect()
    }

    /// The LALR(1) automaton: closed LR(1) item sets and edges.
    pub(crate) struct LalrAutomaton {
        /// Closed item sets, from each state's final worklist processing.
        pub closures: Vec<Vec<Item>>,
        /// `edges[state][sym]` is the successor on grammar symbol `sym`.
        pub edges: Vec<HashMap<GSym, usize>>,
    }

    /// Builds the LALR(1) collection over explicit LR(1) items.
    pub(crate) fn build_lalr(cfg: &Cfg, gi: &GrammarIndex) -> LalrAutomaton {
        let facts = Facts {
            first: first_sets(cfg),
            nullable: nullable_set(cfg),
        };
        let start_kernel: BTreeSet<Item> = [Item {
            prod: AUG_PROD,
            dot: 0,
            la: gi.eof,
        }]
        .into_iter()
        .collect();

        let mut kernels = vec![start_kernel];
        let mut closures: Vec<Vec<Item>> = vec![Vec::new()];
        let mut edges: Vec<HashMap<GSym, usize>> = vec![HashMap::new()];
        let mut by_core: HashMap<Core, usize> = HashMap::new();
        by_core.insert(core_of(&kernels[0]), 0);

        let mut work: VecDeque<usize> = VecDeque::from([0]);
        let mut queued = vec![true];

        while let Some(idx) = work.pop_front() {
            queued[idx] = false;
            let closed = closure(cfg, gi, &facts, &kernels[idx]);
            let mut successors: BTreeMap<GSym, BTreeSet<Item>> = BTreeMap::new();
            for item in &closed {
                if let Some(sym) = gi.rhs(cfg, item.prod).get(item.dot as usize) {
                    successors.entry(*sym).or_default().insert(Item {
                        dot: item.dot + 1,
                        ..*item
                    });
                }
            }
            for (sym, kernel) in successors {
                let core = core_of(&kernel);
                let target = match by_core.get(&core) {
                    Some(&t) => {
                        let before = kernels[t].len();
                        kernels[t].extend(kernel.iter().copied());
                        if kernels[t].len() != before && !queued[t] {
                            queued[t] = true;
                            work.push_back(t);
                        }
                        t
                    }
                    None => {
                        let t = kernels.len();
                        by_core.insert(core, t);
                        kernels.push(kernel);
                        closures.push(Vec::new());
                        edges.push(HashMap::new());
                        queued.push(true);
                        work.push_back(t);
                        t
                    }
                };
                edges[idx].insert(sym, target);
            }
            closures[idx] = closed;
        }
        LalrAutomaton { closures, edges }
    }

    #[test]
    fn prediction_lookaheads_respect_nullability() {
        use lambek_cfg::grammar::Production;
        use lambek_core::alphabet::Alphabet;
        // S ::= A a ; A ::= ε | b — FIRST(A a $) = {a, b}.
        let s = Alphabet::abc();
        let (a, b) = (s.symbol("a").unwrap(), s.symbol("b").unwrap());
        let cfg = Cfg::new(
            s,
            vec!["S".to_owned(), "A".to_owned()],
            vec![
                vec![Production {
                    rhs: vec![GSym::N(1), GSym::T(a)],
                }],
                vec![
                    Production { rhs: vec![] },
                    Production {
                        rhs: vec![GSym::T(b)],
                    },
                ],
            ],
            0,
        );
        let facts = Facts {
            first: first_sets(&cfg),
            nullable: nullable_set(&cfg),
        };
        let (ia, ib, eof) = (a.index() as u16, b.index() as u16, 7);
        let beta = [GSym::N(1), GSym::T(a)];
        assert_eq!(prediction_lookaheads(&facts, &beta, eof), [ia, ib].into());
        // A nullable fragment lets the item's own lookahead through.
        assert_eq!(
            prediction_lookaheads(&facts, &beta[..1], eof),
            [ib, eof].into()
        );
        assert_eq!(prediction_lookaheads(&facts, &[], eof), [eof].into());
    }
}
