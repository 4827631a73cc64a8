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
//! offending item sets — the table type itself only ever represents
//! deterministic grammars.

use std::fmt;

use lambek_cfg::grammar::{Cfg, GSym};

use crate::items::{build_lalr, GrammarIndex, Item, AUG_PROD};

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

/// One unresolvable LALR(1) conflict, pointing at the offending item set.
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
    /// The state's closed item set, rendered (`A → α · β , la`).
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
        let gi = GrammarIndex::new(cfg);
        let automaton = build_lalr(cfg, &gi);
        let n_states = automaton.closures.len();
        let n_terms = cfg.alphabet().len() + 1;
        let n_nts = cfg.num_nonterminals();

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

        for (state, closed) in automaton.closures.iter().enumerate() {
            // GOTO and shift edges come from the automaton transitions.
            for (sym, &target) in &automaton.edges[state] {
                match sym {
                    GSym::N(m) => goto_[state * n_nts + m] = target as u32,
                    GSym::T(c) => {
                        // Shifts are written first and each ACTION row is
                        // filled only during its own state's iteration, so
                        // the cell is still empty here; shift/reduce
                        // collisions surface in the reductions pass below.
                        action[state * n_terms + c.index()] = encode(Action::Shift(target));
                    }
                }
            }
            // Reductions and accept come from completed items.
            for item in closed {
                if (item.dot as usize) < gi.rhs(cfg, item.prod).len() {
                    continue;
                }
                let proposed = if item.prod == AUG_PROD {
                    Action::Accept
                } else {
                    Action::Reduce(item.prod as usize)
                };
                let cell = &mut action[state * n_terms + item.la as usize];
                match decode(*cell) {
                    Action::Error => *cell = encode(proposed),
                    existing if existing == proposed => {}
                    existing => {
                        let kind = if matches!(existing, Action::Shift(_)) {
                            ConflictKind::ShiftReduce
                        } else {
                            ConflictKind::ReduceReduce
                        };
                        conflicts.push(conflict(
                            cfg,
                            &gi,
                            closed,
                            state,
                            item.la as usize,
                            kind,
                            describe(cfg, &gi, existing),
                            describe(cfg, &gi, proposed),
                        ));
                        // Keep the existing action: the table stays
                        // deterministic even while collecting every
                        // conflict for the report.
                    }
                }
            }
        }

        if conflicts.is_empty() {
            Ok(LrTable {
                n_states,
                n_terms,
                n_nts,
                action,
                goto_,
                prods,
            })
        } else {
            Err(LrConflictReport { conflicts })
        }
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
        cfg.alphabet()
            .name(lambek_core::alphabet::Symbol::from_index(t))
            .to_owned()
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

/// Renders one closed item, `A → α · β , la`.
fn render_item(cfg: &Cfg, gi: &GrammarIndex, item: &Item) -> String {
    let (head, rhs) = if item.prod == AUG_PROD {
        ("S'".to_owned(), gi.rhs(cfg, AUG_PROD))
    } else {
        let (nt, _) = gi.nt_alt(item.prod);
        (cfg.name(nt).to_owned(), gi.rhs(cfg, item.prod))
    };
    let mut out = format!("{head} →");
    for (i, sym) in rhs.iter().enumerate() {
        if i == item.dot as usize {
            out.push_str(" ·");
        }
        out.push(' ');
        out.push_str(&sym_name(cfg, sym));
    }
    if item.dot as usize == rhs.len() {
        out.push_str(" ·");
    }
    out.push_str(&format!(" , {}", term_name(cfg, item.la as usize)));
    out
}

#[allow(clippy::too_many_arguments)]
fn conflict(
    cfg: &Cfg,
    gi: &GrammarIndex,
    closed: &[Item],
    state: usize,
    term: usize,
    kind: ConflictKind,
    a: String,
    b: String,
) -> LrConflict {
    LrConflict {
        kind,
        state,
        lookahead: term_name(cfg, term),
        actions: (a, b),
        items: closed.iter().map(|i| render_item(cfg, gi, i)).collect(),
    }
}
