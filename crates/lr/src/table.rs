//! Dense ACTION/GOTO tables and structured conflict reports.
//!
//! The tables follow the flat row-major `Vec` idiom of the DFA layer
//! (`lambek_automata::dfa::Dfa`): one `i32` ACTION cell per
//! `(state, terminal)` — the terminal axis has one extra column for the
//! end-of-input marker `$` — and one `u32` GOTO cell per
//! `(state, nonterminal)`. A driver step is a multiply-add and a load;
//! there is no hashing and no per-row pointer chase on the hot path.
//!
//! Grammars whose LALR(1) tables have conflicting cells are rejected at
//! construction time with an [`LrConflictReport`] pointing at the
//! items that take part in each conflict — the table type itself only
//! ever represents deterministic grammars.

use std::fmt;

use lambek_cfg::grammar::{Cfg, GSym};

use lambek_core::alphabet::Symbol;

use crate::items::{build_lalr, has_bit, ones, CoreItem, GrammarIndex, LalrState, AUG_PROD};

/// A decoded ACTION cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// No action: the input is rejected here.
    Error,
    /// Shift the lookahead and enter the state.
    Shift(usize),
    /// Reduce by the production (an index into [`LrTable::production`]).
    Reduce(usize),
    /// Accept: the stack holds exactly one start-symbol tree.
    Accept,
}

/// Packed ACTION encoding: `0` = error, `i32::MAX` = accept, positive
/// `v` = shift to `v - 1`, negative `v` = reduce by `-v - 1`.
const ACCEPT: i32 = i32::MAX;

#[inline]
fn encode(a: Action) -> i32 {
    match a {
        Action::Error => 0,
        Action::Shift(t) => (t + 1) as i32,
        Action::Reduce(p) => -((p + 1) as i32),
        Action::Accept => ACCEPT,
    }
}

#[inline(always)]
fn decode(v: i32) -> Action {
    match v {
        0 => Action::Error,
        ACCEPT => Action::Accept,
        v if v > 0 => Action::Shift((v - 1) as usize),
        v => Action::Reduce((-v - 1) as usize),
    }
}

/// "No goto" sentinel in the flat GOTO table.
const GOTO_NONE: u32 = u32::MAX;

/// Why two table actions collided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// A state both shifts the lookahead and reduces under it.
    ShiftReduce,
    /// A state reduces by two different productions under one lookahead.
    ReduceReduce,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictKind::ShiftReduce => write!(f, "shift/reduce"),
            ConflictKind::ReduceReduce => write!(f, "reduce/reduce"),
        }
    }
}

/// One unresolvable LALR(1) conflict, with the items that take part in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrConflict {
    /// The conflict class.
    pub kind: ConflictKind,
    /// The automaton state whose ACTION row collided.
    pub state: usize,
    /// Display name of the lookahead terminal (`$` for end of input).
    pub lookahead: String,
    /// Human-readable forms of the two competing actions.
    pub actions: (String, String),
    /// The state's items that take part in this conflict, each core
    /// item once, rendered with the dot: the items shifting the
    /// lookahead as `A → α · a β`, the completed items reducing under it
    /// as `A → α · , a`.
    pub items: Vec<String>,
}

impl fmt::Display for LrConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} conflict in state {} on lookahead {}: {} vs {}",
            self.kind, self.state, self.lookahead, self.actions.0, self.actions.1
        )?;
        for item in &self.items {
            writeln!(f, "    {item}")?;
        }
        Ok(())
    }
}

/// Every conflict found while filling the tables — the structured report
/// a grammar outside the deterministic fragment compiles to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrConflictReport {
    /// The individual collisions, in state order.
    pub conflicts: Vec<LrConflict>,
}

impl fmt::Display for LrConflictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "grammar is not LALR(1): {} conflict(s)",
            self.conflicts.len()
        )?;
        for c in &self.conflicts {
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LrConflictReport {}

/// A production as the driver consumes it: the nonterminal, its
/// alternative index (for [`Cfg::derivation`]) and the RHS length (how
/// many stack entries a reduction pops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProductionRef {
    /// The nonterminal being reduced to.
    pub nt: usize,
    /// Which alternative of `nt`.
    pub alt: usize,
    /// Length of the right-hand side.
    pub rhs_len: usize,
}

/// Dense LALR(1) ACTION/GOTO tables for a conflict-free grammar.
#[derive(Debug, Clone)]
pub struct LrTable {
    n_states: usize,
    /// Terminal columns: `alphabet.len() + 1`, `$` last.
    n_terms: usize,
    n_nts: usize,
    /// Row-major `[state × terminal]` packed actions.
    action: Vec<i32>,
    /// Row-major `[state × nonterminal]` successors (`GOTO_NONE` = none).
    goto_: Vec<u32>,
    /// `prods[p]` describes reduction `p`; `p = 0` is the synthetic
    /// `S' → S` and is never the target of a [`Action::Reduce`].
    prods: Vec<ProductionRef>,
}

impl LrTable {
    /// Builds the LALR(1) tables for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the full [`LrConflictReport`] when any ACTION cell would
    /// hold two different actions — the grammar is outside the
    /// deterministic LALR(1) fragment.
    pub fn build(cfg: &Cfg) -> Result<LrTable, LrConflictReport> {
        let (table, conflicts) = LrTable::fill(cfg);
        if conflicts.is_empty() {
            Ok(table)
        } else {
            Err(LrConflictReport { conflicts })
        }
    }

    /// Fills the tables from the bitset automaton, keeping the first
    /// action of every collided cell, and collects the conflicts.
    fn fill(cfg: &Cfg) -> (LrTable, Vec<LrConflict>) {
        let gi = GrammarIndex::new(cfg);
        let states = build_lalr(cfg, &gi);
        let n_states = states.len();
        let n_terms = cfg.alphabet().len() + 1;
        let n_nts = cfg.num_nonterminals();
        let w = gi.words;

        let mut prods = vec![ProductionRef {
            nt: usize::MAX,
            alt: usize::MAX,
            rhs_len: 1,
        }];
        for p in 1..gi.num_prods() {
            let (nt, alt) = gi.nt_alt(p as u32);
            prods.push(ProductionRef {
                nt,
                alt,
                rhs_len: cfg.alternatives(nt)[alt].rhs.len(),
            });
        }

        let mut action = vec![0i32; n_states * n_terms];
        let mut goto_ = vec![GOTO_NONE; n_states * n_nts];
        let mut conflicts = Vec::new();
        let mut completed: Vec<(u32, &[u64])> = Vec::new();

        for (id, state) in states.iter().enumerate() {
            // GOTO and shift edges come from the automaton transitions.
            for &(sym, target) in &state.edges {
                match sym {
                    GSym::N(m) => goto_[id * n_nts + m] = target as u32,
                    GSym::T(c) => {
                        // Shifts are written first and each ACTION row is
                        // filled only during its own state's iteration, so
                        // the cell is still empty here; shift/reduce
                        // collisions surface in the reductions pass below.
                        action[id * n_terms + c.index()] = encode(Action::Shift(target));
                    }
                }
            }
            // Reductions and accept come from completed core items — the
            // kernel's, and the ε-productions of predicted nonterminals —
            // in core order, each under its lookahead bits.
            completed.clear();
            for (i, &(p, dot)) in state.kernel.iter().enumerate() {
                if dot as usize == gi.rhs(cfg, p).len() {
                    completed.push((p, &state.kernel_la[i * w..(i + 1) * w]));
                }
            }
            for (j, &b) in state.predicted.iter().enumerate() {
                for alt in 0..cfg.alternatives(b).len() {
                    if cfg.alternatives(b)[alt].rhs.is_empty() {
                        let la = &state.predicted_la[j * w..(j + 1) * w];
                        completed.push((gi.prod_of(b, alt), la));
                    }
                }
            }
            // A completed item's dot is its RHS length, so the
            // production alone orders them.
            completed.sort_unstable_by_key(|&(p, _)| p);
            for &(p, la) in &completed {
                let proposed = if p == AUG_PROD {
                    Action::Accept
                } else {
                    Action::Reduce(p as usize)
                };
                for term in ones(la) {
                    let cell = &mut action[id * n_terms + term];
                    match decode(*cell) {
                        Action::Error => *cell = encode(proposed),
                        existing if existing == proposed => {}
                        existing => {
                            let kind = if matches!(existing, Action::Shift(_)) {
                                ConflictKind::ShiftReduce
                            } else {
                                ConflictKind::ReduceReduce
                            };
                            conflicts.push(LrConflict {
                                kind,
                                state: id,
                                lookahead: term_name(cfg, term),
                                actions: (
                                    describe(cfg, &gi, existing),
                                    describe(cfg, &gi, proposed),
                                ),
                                items: conflict_items(cfg, &gi, state, term),
                            });
                            // Keep the existing action: the table stays
                            // deterministic even while collecting every
                            // conflict for the report.
                        }
                    }
                }
            }
        }

        let table = LrTable {
            n_states,
            n_terms,
            n_nts,
            action,
            goto_,
            prods,
        };
        (table, conflicts)
    }

    /// Number of automaton states.
    pub fn num_states(&self) -> usize {
        self.n_states
    }

    /// Number of terminal columns (`alphabet.len() + 1`; `$` is last).
    pub fn num_terminals(&self) -> usize {
        self.n_terms
    }

    /// The column index of the end-of-input marker `$`.
    pub fn eof_column(&self) -> usize {
        self.n_terms - 1
    }

    /// Number of GOTO columns (one per nonterminal).
    pub fn num_nonterminals(&self) -> usize {
        self.n_nts
    }

    /// The ACTION cell for `state` under terminal column `term`
    /// (a symbol index, or [`LrTable::eof_column`]).
    #[inline]
    pub fn action(&self, state: usize, term: usize) -> Action {
        decode(self.action[state * self.n_terms + term])
    }

    /// The packed ACTION word for `state` under `term`, for hot loops
    /// that branch on the encoding directly; decode with
    /// [`LrTable::decode_action`].
    #[inline(always)]
    pub fn raw_action(&self, state: usize, term: usize) -> i32 {
        self.action[state * self.n_terms + term]
    }

    /// Decodes a word read via [`LrTable::raw_action`].
    #[inline(always)]
    pub fn decode_action(&self, v: i32) -> Action {
        decode(v)
    }

    /// The GOTO successor of `state` on nonterminal `nt`, if any.
    #[inline]
    pub fn goto(&self, state: usize, nt: usize) -> Option<usize> {
        let v = self.goto_[state * self.n_nts + nt];
        (v != GOTO_NONE).then_some(v as usize)
    }

    /// The production behind reduction index `p`.
    pub fn production(&self, p: usize) -> ProductionRef {
        self.prods[p]
    }

    /// Number of productions (the synthetic `S' → S` included).
    pub fn num_productions(&self) -> usize {
        self.prods.len()
    }

    /// Test support: overwrites one ACTION cell. The table is an
    /// untrusted artifact, and fault-injection tests run corrupted
    /// copies under the honest certifier
    /// ([`crate::CertifiedLrParser::with_table`]). Each setter panics
    /// unless its indices are in range (a real cell, state, production
    /// or nonterminal), so the corrupted table is still well formed.
    #[doc(hidden)]
    pub fn set_action(&mut self, state: usize, term: usize, a: Action) {
        assert!(state < self.n_states && term < self.n_terms, "no such cell");
        match a {
            Action::Shift(t) => assert!(t < self.n_states, "no such state"),
            Action::Reduce(p) => assert!((1..self.prods.len()).contains(&p), "no such production"),
            Action::Error | Action::Accept => {}
        }
        self.action[state * self.n_terms + term] = encode(a);
    }

    /// Test support: overwrites one GOTO cell (see [`LrTable::set_action`]).
    #[doc(hidden)]
    pub fn set_goto(&mut self, state: usize, nt: usize, to: Option<usize>) {
        assert!(state < self.n_states && nt < self.n_nts, "no such cell");
        assert!(to.is_none_or(|t| t < self.n_states), "no such state");
        self.goto_[state * self.n_nts + nt] = to.map_or(GOTO_NONE, |t| t as u32);
    }

    /// Test support: overwrites one production record, to any tag and
    /// RHS length (see [`LrTable::set_action`]).
    #[doc(hidden)]
    pub fn set_production(&mut self, p: usize, prod: ProductionRef) {
        assert!((1..self.prods.len()).contains(&p), "no such production");
        assert!(prod.nt < self.n_nts, "no such nonterminal");
        self.prods[p] = prod;
    }

    /// The terminal columns with a non-error action in `state`, rendered
    /// with the alphabet's symbol names (`$` for end of input) — the
    /// "expected one of …" list of a rejection report.
    pub fn expected_in(&self, cfg: &Cfg, state: usize) -> Vec<String> {
        (0..self.n_terms)
            .filter(|&t| self.action(state, t) != Action::Error)
            .map(|t| term_name(cfg, t))
            .collect()
    }
}

/// Display name of terminal column `t` (`$` for the EOF column).
pub(crate) fn term_name(cfg: &Cfg, t: usize) -> String {
    if t == cfg.alphabet().len() {
        "$".to_owned()
    } else {
        cfg.alphabet().name(Symbol::from_index(t)).to_owned()
    }
}

/// Human-readable form of an action for conflict reports.
fn describe(cfg: &Cfg, gi: &GrammarIndex, a: Action) -> String {
    match a {
        Action::Error => "error".to_owned(),
        Action::Shift(t) => format!("shift to state {t}"),
        Action::Accept => "accept".to_owned(),
        Action::Reduce(p) => format!("reduce {}", render_prod(cfg, gi, p)),
    }
}

fn render_prod(cfg: &Cfg, gi: &GrammarIndex, p: usize) -> String {
    let (nt, _) = gi.nt_alt(p as u32);
    let rhs = gi.rhs(cfg, p as u32);
    let mut out = format!("{} →", cfg.name(nt));
    if rhs.is_empty() {
        out.push_str(" ε");
    }
    for sym in rhs {
        out.push(' ');
        out.push_str(&sym_name(cfg, sym));
    }
    out
}

fn sym_name(cfg: &Cfg, sym: &GSym) -> String {
    match sym {
        GSym::T(c) => cfg.alphabet().name(*c).to_owned(),
        GSym::N(m) => cfg.name(*m).to_owned(),
    }
}

/// Renders one item, `A → α · β`, with ` , la` appended when given.
fn render_item(cfg: &Cfg, gi: &GrammarIndex, (prod, dot): CoreItem, la: Option<usize>) -> String {
    let (head, rhs) = if prod == AUG_PROD {
        ("S'".to_owned(), gi.rhs(cfg, AUG_PROD))
    } else {
        let (nt, _) = gi.nt_alt(prod);
        (cfg.name(nt).to_owned(), gi.rhs(cfg, prod))
    };
    let mut out = format!("{head} →");
    for (i, sym) in rhs.iter().enumerate() {
        if i == dot as usize {
            out.push_str(" ·");
        }
        out.push(' ');
        out.push_str(&sym_name(cfg, sym));
    }
    if dot as usize == rhs.len() {
        out.push_str(" ·");
    }
    if let Some(la) = la {
        out.push_str(&format!(" , {}", term_name(cfg, la)));
    }
    out
}

/// The items of `state` that take part in a conflict on lookahead
/// column `term`, each core item once: those that shift `term` (rendered
/// as their core — a shift does not read the item's own lookaheads), and
/// the completed items whose lookahead bits hold `term` (rendered with
/// it).
fn conflict_items(cfg: &Cfg, gi: &GrammarIndex, state: &LalrState, term: usize) -> Vec<String> {
    let shifted = (term < cfg.alphabet().len()).then(|| GSym::T(Symbol::from_index(term)));
    state
        .items(cfg, gi)
        .into_iter()
        .filter_map(|((p, dot), la)| match gi.rhs(cfg, p).get(dot as usize) {
            Some(sym) => (Some(*sym) == shifted).then(|| render_item(cfg, gi, (p, dot), None)),
            None => has_bit(la, term).then(|| render_item(cfg, gi, (p, dot), Some(term))),
        })
        .collect()
}

/// The bitset builder against the per-lookahead LR(1) construction it
/// replaced ([`crate::items::oracle`]): the same tables cell for cell,
/// and the same conflicts, whose item lines are the oracle's closed
/// items filtered to those taking part.
#[cfg(test)]
mod oracle_equality {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use lambek_automata::lookahead::ArithTokens;
    use lambek_cfg::dyck::{dyck_cfg, Parens};
    use lambek_cfg::expr::exp_cfg;
    use lambek_cfg::grammar::{Cfg, GSym, Production};
    use lambek_core::alphabet::{Alphabet, Symbol};

    use super::*;
    use crate::items::oracle;

    /// The oracle's table and conflicts, filled as `LrTable::build` did
    /// before the bitset builder: shifts from the edges, then every
    /// completed LR(1) item in item order.
    fn oracle_fill(cfg: &Cfg) -> (usize, Vec<Action>, Vec<Option<usize>>, Vec<LrConflict>) {
        let gi = GrammarIndex::new(cfg);
        let automaton = oracle::build_lalr(cfg, &gi);
        let n_states = automaton.closures.len();
        let n_terms = cfg.alphabet().len() + 1;
        let n_nts = cfg.num_nonterminals();
        let mut action = vec![Action::Error; n_states * n_terms];
        let mut goto_ = vec![None; n_states * n_nts];
        let mut conflicts = Vec::new();
        for (state, closed) in automaton.closures.iter().enumerate() {
            for (sym, &target) in &automaton.edges[state] {
                match sym {
                    GSym::N(m) => goto_[state * n_nts + m] = Some(target),
                    GSym::T(c) => action[state * n_terms + c.index()] = Action::Shift(target),
                }
            }
            for item in closed {
                if (item.dot as usize) < gi.rhs(cfg, item.prod).len() {
                    continue;
                }
                let proposed = if item.prod == AUG_PROD {
                    Action::Accept
                } else {
                    Action::Reduce(item.prod as usize)
                };
                let la = item.la as usize;
                let cell = &mut action[state * n_terms + la];
                match *cell {
                    Action::Error => *cell = proposed,
                    existing if existing == proposed => {}
                    existing => {
                        let kind = if matches!(existing, Action::Shift(_)) {
                            ConflictKind::ShiftReduce
                        } else {
                            ConflictKind::ReduceReduce
                        };
                        // The oracle's LR(1) lines taking part, each core
                        // item once: shifts of `la`, completions under it.
                        let mut items: Vec<String> = Vec::new();
                        let mut last = None;
                        for i in closed {
                            let line = match gi.rhs(cfg, i.prod).get(i.dot as usize) {
                                Some(GSym::T(c)) if c.index() == la => {
                                    render_item(cfg, &gi, (i.prod, i.dot), None)
                                }
                                None if i.la as usize == la => {
                                    render_item(cfg, &gi, (i.prod, i.dot), Some(la))
                                }
                                _ => continue,
                            };
                            if last != Some((i.prod, i.dot)) {
                                last = Some((i.prod, i.dot));
                                items.push(line);
                            }
                        }
                        conflicts.push(LrConflict {
                            kind,
                            state,
                            lookahead: term_name(cfg, la),
                            actions: (describe(cfg, &gi, existing), describe(cfg, &gi, proposed)),
                            items,
                        });
                    }
                }
            }
        }
        (n_states, action, goto_, conflicts)
    }

    /// Asserts the bitset tables equal the oracle's; returns whether the
    /// grammar is conflict-free.
    fn assert_matches_oracle(cfg: &Cfg, what: &str) -> bool {
        let (table, conflicts) = LrTable::fill(cfg);
        let (n_states, action, goto_, oracle_conflicts) = oracle_fill(cfg);
        assert_eq!(table.num_states(), n_states, "{what}: state count");
        for s in 0..n_states {
            for t in 0..table.num_terminals() {
                assert_eq!(
                    table.action(s, t),
                    action[s * table.num_terminals() + t],
                    "{what}: ACTION[{s}, {t}]"
                );
            }
            for m in 0..table.num_nonterminals() {
                assert_eq!(
                    table.goto(s, m),
                    goto_[s * table.num_nonterminals() + m],
                    "{what}: GOTO[{s}, {m}]"
                );
            }
        }
        assert_eq!(
            table.num_productions(),
            1 + (0..cfg.num_nonterminals())
                .map(|n| cfg.alternatives(n).len())
                .sum::<usize>()
        );
        let mut p = 1;
        for nt in 0..cfg.num_nonterminals() {
            for (alt, prod) in cfg.alternatives(nt).iter().enumerate() {
                let expect = ProductionRef {
                    nt,
                    alt,
                    rhs_len: prod.rhs.len(),
                };
                assert_eq!(table.production(p), expect, "{what}: production {p}");
                p += 1;
            }
        }
        assert_eq!(conflicts, oracle_conflicts, "{what}: conflicts");
        conflicts.is_empty()
    }

    /// Terminal counts on either side of the 64-bit word boundaries.
    const TERMINAL_COUNTS: [usize; 5] = [3, 63, 64, 65, 130];

    /// A random CFG over `n_terms` terminals: 1–4 nonterminals, 1–3
    /// alternatives of length 0–4 (so ε-productions, nullable and
    /// non-productive nonterminals all occur). Terminals are drawn half
    /// the time from the word-boundary columns.
    fn random_cfg(seed: u64, n_terms: usize) -> Cfg {
        let mut rng = StdRng::seed_from_u64(seed);
        let names: Vec<String> = (0..n_terms).map(|i| format!("t{i}")).collect();
        let boundary = [0, 1, 62, 63, 64, 65, 127, 128, 129];
        let num_nt = rng.gen_range(1..5);
        let mut productions = Vec::new();
        for _ in 0..num_nt {
            let alts = (0..rng.gen_range(1..4))
                .map(|_| {
                    let rhs = (0..rng.gen_range(0..5))
                        .map(|_| {
                            if rng.gen_range(0..5) < 2 {
                                GSym::N(rng.gen_range(0..num_nt))
                            } else if rng.gen_range(0..2) == 0 {
                                let t = boundary[rng.gen_range(0..boundary.len())];
                                GSym::T(Symbol::from_index(t.min(n_terms - 1)))
                            } else {
                                GSym::T(Symbol::from_index(rng.gen_range(0..n_terms)))
                            }
                        })
                        .collect();
                    Production { rhs }
                })
                .collect();
            productions.push(alts);
        }
        Cfg::new(
            Alphabet::new(&names),
            (0..num_nt).map(|i| format!("N{i}")).collect(),
            productions,
            0,
        )
    }

    /// A generated expression grammar's text: `levels` precedence levels
    /// of 1–3 binary operators, each left- or right-associative.
    fn expression_text(seed: u64, levels: usize) -> String {
        const OPS: [&str; 12] = ["+", "-", "*", "/", "%", "^", "&", "|", "<", ">", "==", "::"];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = OPS.iter();
        let mut t = String::from("token NUM = [0-9]+ ;\nskip WS = [ \\n]+ ;\n");
        for i in 0..levels {
            let right = rng.gen_range(0..2) == 0;
            let alts: Vec<String> = (0..rng.gen_range(1..3))
                .map(|_| {
                    let op = ops.next().unwrap();
                    if right {
                        format!("E{} '{op}' E{i}", i + 1)
                    } else {
                        format!("E{i} '{op}' E{}", i + 1)
                    }
                })
                .collect();
            t.push_str(&format!("E{i} ::= {} | E{} ;\n", alts.join(" | "), i + 1));
        }
        t.push_str(&format!("E{levels} ::= NUM | '(' E0 ')' ;\n"));
        t
    }

    fn text_cfg(text: &str) -> Cfg {
        let ast = lambek_frontend::parse_text(text).unwrap();
        lambek_frontend::elaborate(text, &ast).unwrap().cfg
    }

    #[test]
    fn bitset_builder_matches_oracle_on_the_standard_grammars() {
        let t = ArithTokens::new();
        assert!(assert_matches_oracle(&dyck_cfg(&Parens::new()), "dyck"));
        assert!(assert_matches_oracle(&exp_cfg(&t), "fig15"));
        assert!(assert_matches_oracle(&lambek_frontend::meta_cfg(), "meta"));
        for (name, text) in lambek_frontend::presets::all() {
            assert!(assert_matches_oracle(&text_cfg(text), name));
        }
        for levels in 2..=6 {
            for seed in 0..4 {
                let text = expression_text(seed, levels);
                assert!(assert_matches_oracle(&text_cfg(&text), &text));
            }
        }
        // Ambiguous: `E ::= E E | a` conflicts on every lookahead.
        let ambiguous = text_cfg("token A = 'a' ;\nE ::= E E | A ;\n");
        assert!(!assert_matches_oracle(&ambiguous, "E E"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random CFGs at every word-boundary terminal count: the same
        /// states, ACTION, GOTO, productions and conflicts.
        #[test]
        fn bitset_builder_matches_oracle_on_random_cfgs(
            seed in 0u64..1_000_000,
            width in 0usize..TERMINAL_COUNTS.len(),
        ) {
            let cfg = random_cfg(seed, TERMINAL_COUNTS[width]);
            assert_matches_oracle(&cfg, &format!("seed {seed}, {} terminals", TERMINAL_COUNTS[width]));
        }

        /// Generated expression grammars of 2–6 precedence levels.
        #[test]
        fn bitset_builder_matches_oracle_on_expression_grammars(
            seed in 0u64..1_000_000,
            levels in 2usize..7,
        ) {
            let text = expression_text(seed, levels);
            prop_assert!(assert_matches_oracle(&text_cfg(&text), &text));
        }
    }
}
