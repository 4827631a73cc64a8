//! The table-driven shift-reduce driver and its push-mode stream form.
//!
//! Both drivers run the same loop: look up
//! `ACTION[state, lookahead]` in the dense table, shift or reduce, and
//! stop on accept or error. [`recognize_states`] keeps only the state
//! stack (the allocation-light path behind `accepts` and
//! [`LrStream::would_accept`]); the parsing drivers additionally append
//! every shift and reduction to one postorder [`ReductionLog`]. The log
//! *is* the derivation: [`ReductionLog::to_parse_tree`] materializes
//! exactly the μ-regular tree [`Cfg::derivation`] builds, and nothing
//! on the driver side ever builds a boxed node.
//!
//! Every loop carries a *fuel* bound on reductions between shifts. A
//! conflict-free LALR(1) table never needs it — it exists so that a
//! hypothetical table-construction bug degrades into a structured
//! rejection instead of divergence (the property suites run the driver
//! over randomly generated grammars).

use std::fmt;

use lambek_cfg::grammar::{Cfg, GSym};
use lambek_core::alphabet::{GString, Symbol};
use lambek_core::grammar::expr::{chr, var};
use lambek_core::grammar::parse_tree::{LogEntry, ReductionLog, ValidateError};
use lambek_core::intern::{self, GrammarId};

use crate::table::{Action, LrTable};

/// Precomputed interned-id tables for incremental certification: one
/// grammar id per terminal (`'c'`), one per nonterminal (`var n`), and
/// the expected child-id sequence of every table production. All built
/// once at compile time through the interner, so the per-step checks are
/// integer comparisons — no interner lock, no grammar traversal.
#[derive(Debug)]
pub(crate) struct CertTables {
    /// `grammar_id(chr(c))` per alphabet symbol.
    chr_ids: Vec<GrammarId>,
    /// `grammar_id(var(n))` per nonterminal.
    var_ids: Vec<GrammarId>,
    /// Per table production `p`, the ids its RHS symbols must claim
    /// (index 0, the synthetic `S' → S`, is unused).
    rhs_ids: Vec<Vec<GrammarId>>,
    /// The claim of a completed start symbol.
    start_id: GrammarId,
}

impl CertTables {
    pub(crate) fn build(table: &LrTable, cfg: &Cfg) -> CertTables {
        let chr_ids: Vec<GrammarId> = cfg
            .alphabet()
            .symbols()
            .map(|s| intern::grammar_id(&chr(s)))
            .collect();
        let var_ids: Vec<GrammarId> = (0..cfg.num_nonterminals())
            .map(|n| intern::grammar_id(&var(n)))
            .collect();
        let mut rhs_ids = vec![Vec::new()];
        for p in 1..table.num_productions() {
            let pr = table.production(p);
            let rhs = &cfg.alternatives(pr.nt)[pr.alt].rhs;
            rhs_ids.push(
                rhs.iter()
                    .map(|g| match g {
                        GSym::T(c) => chr_ids[c.index()],
                        GSym::N(n) => var_ids[*n],
                    })
                    .collect(),
            );
        }
        let start_id = var_ids[cfg.start()];
        CertTables {
            chr_ids,
            var_ids,
            rhs_ids,
            start_id,
        }
    }

    /// The interned id a [`ClaimRef`] denotes, `None` if the index is
    /// out of range for this grammar.
    pub(crate) fn claim_id(&self, claim: ClaimRef) -> Option<GrammarId> {
        match claim {
            ClaimRef::Term(i) => self.chr_ids.get(i).copied(),
            ClaimRef::Var(n) => self.var_ids.get(n).copied(),
        }
    }

    /// The stable [`ClaimRef`] of an interned claim id (a linear scan:
    /// this runs once per stack entry at snapshot time, over alphabets
    /// and nonterminal sets that are small by construction).
    pub(crate) fn claim_ref(&self, id: GrammarId) -> Option<ClaimRef> {
        if let Some(i) = self.chr_ids.iter().position(|&c| c == id) {
            return Some(ClaimRef::Term(i));
        }
        self.var_ids
            .iter()
            .position(|&v| v == id)
            .map(ClaimRef::Var)
    }
}

/// A process-independent reference to a claim on the LR machine's
/// certification stack: interned [`GrammarId`]s are stable only within
/// one process, so session snapshots record each claim as *terminal
/// number `i`* or *nonterminal number `n`* and map it back through the
/// resuming parser's certification tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimRef {
    /// The claim `chr(c)` for the alphabet's `i`th symbol.
    Term(usize),
    /// The claim `var(n)` for the grammar's `n`th nonterminal.
    Var(usize),
}

/// Renders a claim sequence for fault reports.
fn render_claims(ids: &[GrammarId]) -> String {
    let parts: Vec<String> = ids
        .iter()
        .map(|id| intern::grammar(*id).to_string())
        .collect();
    if parts.is_empty() {
        "ε".to_owned()
    } else {
        parts.join(" ⊗ ")
    }
}

/// Test-only fault injection for the LR machine: corrupts exactly one
/// step of the run so the adversarial suites can prove the incremental
/// certifier notices *at that step*. Hidden from docs; never constructed
/// by production code.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SabotageLr {
    /// At the `shift`th shift (0-based), log a leaf carrying `sym`
    /// instead of the input symbol.
    ShiftLeaf {
        /// Which shift to corrupt.
        shift: usize,
        /// The bogus leaf symbol.
        sym: Symbol,
    },
    /// At the `reduce`th reduction, behave as if the table had said
    /// `production` (pop its RHS length, log its reduction).
    ReduceAs {
        /// Which reduction to corrupt.
        reduce: usize,
        /// The table production to substitute.
        production: usize,
    },
    /// At the `reduce`th reduction, log the injection tag `tag`
    /// instead of the production's alternative.
    ReduceTag {
        /// Which reduction to corrupt.
        reduce: usize,
        /// The bogus alternative index.
        tag: usize,
    },
}

/// Why the driver rejected an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrReject {
    /// Input position of the offending symbol (`input.len()` means the
    /// input ended while more was expected).
    pub at: usize,
    /// The automaton state that had no action.
    pub state: usize,
    /// The terminals the state *would* have accepted (`$` = end of
    /// input).
    pub expected: Vec<String>,
}

impl fmt::Display for LrReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rejected at position {} (state {}): expected one of [{}]",
            self.at,
            self.state,
            self.expected.join(", ")
        )
    }
}

/// Like `CertifyError` and `LrConflictReport`, rejections box uniformly
/// into `dyn Error` for engine callers.
impl std::error::Error for LrReject {}

/// Log entries to reserve for an input of `n` symbols: its `n` shifts
/// plus the reductions, which the grammars we serve keep within about
/// twice the shifts (more only regrows the log, amortized).
pub(crate) fn log_capacity(n: usize) -> usize {
    3 * n + 2
}

/// Fuel for reductions between two shifts: generous enough for any legal
/// unwinding (which is bounded by the stack depth times the state count)
/// while still finite.
fn reduce_fuel(table: &LrTable, stack_depth: usize) -> usize {
    (stack_depth + 2) * (table.num_states() + 1) * (table.num_productions() + 1)
}

fn reject(table: &LrTable, cfg: &Cfg, at: usize, state: usize) -> LrReject {
    LrReject {
        at,
        state,
        expected: table.expected_in(cfg, state),
    }
}

/// The ACTION column of an input symbol, or `None` when the symbol is
/// not from this grammar's alphabet. Foreign symbols must be rejected up
/// front: an unchecked index would alias the `$` column (or a
/// neighboring state's row) and silently mis-accept — the same contract
/// `Dfa::delta` documents, enforced here with a real check because the
/// LR drivers are exposed through the engine's streaming API.
#[inline]
fn term_column(table: &LrTable, sym: Symbol) -> Option<usize> {
    let idx = sym.index();
    (idx < table.eof_column()).then_some(idx)
}

/// Runs the recognition-only driver: state stack, no log, and no
/// rejection report either — callers that need positions and expected
/// sets use [`parse_log`]; this path answers yes/no with the state
/// stack as its only allocation.
pub(crate) fn recognize_states(table: &LrTable, w: &GString) -> bool {
    // One stack allocation for the whole run; the stack never exceeds
    // the input length + 2 (each shift or ε-reduce pushes one state).
    // The current state lives in a register (`top`); `states` holds the
    // states *below* it, so the hot loop never re-reads the stack top.
    let mut states: Vec<u32> = Vec::with_capacity(w.len() + 2);
    let mut top: u32 = 0;
    // One fuel budget for the whole run (see `reduce_fuel`): the total
    // number of reductions of an accepting run is bounded by the tree
    // size, itself bounded by stack depth × productions per position.
    let mut fuel = reduce_fuel(table, w.len() + 2);
    for pos in 0..=w.len() {
        let term = if pos < w.len() {
            match term_column(table, w[pos]) {
                Some(t) => t,
                None => return false,
            }
        } else {
            table.eof_column()
        };
        loop {
            match table.decode_action(table.raw_action(top as usize, term)) {
                Action::Shift(t) => {
                    states.push(top);
                    top = t as u32;
                    break;
                }
                Action::Reduce(p) => {
                    let prod = table.production(p);
                    if prod.rhs_len > 0 {
                        // `states` holds the stack below `top`, so depth
                        // is `states.len() + 1`; an inconsistent table
                        // popping the bottom marker degrades to a
                        // rejection (same defense as the tree driver).
                        if prod.rhs_len > states.len() {
                            return false;
                        }
                        states.truncate(states.len() + 1 - prod.rhs_len);
                        top = states.pop().expect("reduction never empties the stack");
                    }
                    let Some(g) = table.goto(top as usize, prod.nt) else {
                        return false;
                    };
                    states.push(top);
                    top = g as u32;
                    if fuel == 0 {
                        return false;
                    }
                    fuel -= 1;
                }
                Action::Accept => return true,
                Action::Error => return false,
            }
        }
    }
    unreachable!("the EOF column only ever accepts or errors")
}

/// One shift-reduce engine over a dense table, carrying the state stack
/// and the run's reduction log. The one-shot parser and the push-mode
/// stream share it.
///
/// The log holds one complete tree per non-bottom stack slot, in stack
/// order: a shift appends a root, a reduction of arity `k` closes the
/// last `k` roots into one. So the log's roots *are* the tree stack,
/// without a node per constructor.
#[derive(Debug, Clone)]
pub(crate) struct Machine {
    states: Vec<u32>,
    log: ReductionLog,
    /// One interned grammar id per stack slot (= per log root): the
    /// grammar that subtree is claimed (and, inductively, checked) to
    /// parse. Maintained only when `feed` runs with certification
    /// tables.
    claims: Vec<GrammarId>,
    sabotage: Option<SabotageLr>,
    shifts_done: usize,
    reduces_done: usize,
    /// Certification checks discharged so far (see
    /// [`crate::probes::LrProbes::claims_checked`]).
    claims_checked: u64,
    /// `(shifts, reduces, claims)` already published to the process
    /// probes — the flush marker, advanced on every terminal step.
    flushed: (usize, usize, u64),
}

/// What one [`Machine::feed`] call ended with.
pub(crate) enum Step {
    /// The terminal was shifted (never happens for the EOF column).
    Shifted,
    /// The accept action fired (EOF column only); here is the log of
    /// the one complete tree.
    Accepted(ReductionLog),
    /// No action: the state had nothing for this terminal.
    Rejected { state: usize },
    /// The incremental certifier caught the driver logging a step that
    /// does not match the grammar — the certification analogue of
    /// a failed whole-tree `validate`.
    Faulted(ValidateError),
}

impl Machine {
    pub(crate) fn new() -> Machine {
        Machine::with_capacity(0)
    }

    /// A machine with every stack and the log pre-sized for an input of
    /// `n` symbols, so a run allocates a fixed number of times whatever
    /// the input's length or nesting.
    pub(crate) fn with_capacity(n: usize) -> Machine {
        let mut states = Vec::with_capacity(n + 2);
        states.push(0);
        Machine {
            states,
            log: ReductionLog::with_capacity(log_capacity(n)),
            claims: Vec::with_capacity(n + 1),
            sabotage: None,
            shifts_done: 0,
            reduces_done: 0,
            claims_checked: 0,
            flushed: (0, 0, 0),
        }
    }

    /// Installs a fault injection (test-only; see [`SabotageLr`]).
    pub(crate) fn set_sabotage(&mut self, s: SabotageLr) {
        self.sabotage = Some(s);
    }

    /// `(shifts, reduces)` performed so far — the step counters the
    /// sabotage indices refer to.
    pub(crate) fn step_counts(&self) -> (usize, usize) {
        (self.shifts_done, self.reduces_done)
    }

    /// Current parse-stack depth (states minus the bottom marker) — the
    /// number of partial trees held.
    pub(crate) fn depth(&self) -> usize {
        self.states.len() - 1
    }

    /// The state stack, for acceptance probes.
    pub(crate) fn states(&self) -> &[u32] {
        &self.states
    }

    /// The current (top-of-stack) state.
    pub(crate) fn current_state(&self) -> usize {
        *self.states.last().expect("state stack is never empty") as usize
    }

    /// The run's log: one root per shifted-or-reduced stack slot, for
    /// state extraction.
    pub(crate) fn log(&self) -> &ReductionLog {
        &self.log
    }

    /// The claim stack parallel to the log's roots (empty when the
    /// machine runs without certification tables).
    pub(crate) fn claims(&self) -> &[GrammarId] {
        &self.claims
    }

    /// Reassembles a machine from extracted state — the re-injection
    /// half of session resume. The caller (see
    /// [`crate::CertifiedLrParser::resume_stream`]) is responsible for
    /// having *validated* the parts against the table and grammar; this
    /// constructor only glues them back together.
    pub(crate) fn from_parts(
        states: Vec<u32>,
        log: ReductionLog,
        claims: Vec<GrammarId>,
        shifts_done: usize,
        reduces_done: usize,
    ) -> Machine {
        Machine {
            states,
            log,
            claims,
            sabotage: None,
            shifts_done,
            reduces_done,
            // Resumed steps were (or will be) published by the process
            // that ran them; this machine publishes only its own.
            claims_checked: 0,
            flushed: (shifts_done, reduces_done, 0),
        }
    }

    /// Publishes the step-count deltas since the last flush to the
    /// process-wide probes — called on terminal steps only, so the
    /// shift/reduce loop stays free of shared-memory traffic.
    fn flush_probes(&mut self) {
        use std::sync::atomic::Ordering;
        let (fs, fr, fc) = self.flushed;
        if self.shifts_done > fs {
            crate::probes::SHIFTS.fetch_add((self.shifts_done - fs) as u64, Ordering::Relaxed);
        }
        if self.reduces_done > fr {
            crate::probes::REDUCES.fetch_add((self.reduces_done - fr) as u64, Ordering::Relaxed);
        }
        if self.claims_checked > fc {
            crate::probes::CLAIMS_CHECKED.fetch_add(self.claims_checked - fc, Ordering::Relaxed);
        }
        self.flushed = (self.shifts_done, self.reduces_done, self.claims_checked);
    }

    /// Feeds one input symbol (`None` = end of input): reduces until the
    /// table shifts, accepts or errors. Symbols outside the grammar's
    /// alphabet are rejected up front (see [`term_column`]).
    ///
    /// With `cert` tables, every step is certified as it happens: a
    /// logged leaf must be the input symbol, a reduction's closed
    /// children must claim exactly the production's RHS ids, the logged
    /// reduction must carry the production's injection tag, and the
    /// accepted stack must be a lone start-symbol claim. Each check is
    /// O(1) in interned-id comparisons, and together they maintain the
    /// invariant that every root of the log materializes to a tree that
    /// `check_shape`s against its claim and yields the input slice it
    /// covers — so an `Accepted` log needs no whole-tree `validate`.
    pub(crate) fn feed(
        &mut self,
        table: &LrTable,
        cert: Option<&CertTables>,
        sym: Option<Symbol>,
    ) -> Step {
        let step = self.feed_inner(table, cert, sym);
        if !matches!(step, Step::Shifted) {
            self.flush_probes();
        }
        step
    }

    fn feed_inner(
        &mut self,
        table: &LrTable,
        cert: Option<&CertTables>,
        sym: Option<Symbol>,
    ) -> Step {
        let term = match sym {
            Some(s) => match term_column(table, s) {
                Some(t) => t,
                None => {
                    return Step::Rejected {
                        state: self.current_state(),
                    }
                }
            },
            None => table.eof_column(),
        };
        let mut fuel = reduce_fuel(table, self.states.len());
        loop {
            let s = *self.states.last().expect("state stack is never empty") as usize;
            match table.action(s, term) {
                Action::Shift(t) => {
                    let sym = sym.expect("EOF is never shifted");
                    let mut leaf = sym;
                    if let Some(SabotageLr::ShiftLeaf { shift, sym: bogus }) = self.sabotage {
                        if shift == self.shifts_done {
                            leaf = bogus;
                        }
                    }
                    self.shifts_done += 1;
                    if let Some(ct) = cert {
                        self.claims_checked += 1;
                        if leaf != sym {
                            return Step::Faulted(ValidateError::ShapeMismatch {
                                expected: intern::grammar(ct.chr_ids[sym.index()]).to_string(),
                                found: LogEntry::Shift(leaf).to_string(),
                            });
                        }
                        self.claims.push(ct.chr_ids[sym.index()]);
                    }
                    self.log.shift(leaf);
                    self.states.push(t as u32);
                    return Step::Shifted;
                }
                Action::Reduce(p) => {
                    let (p, prod) = match self.sabotage {
                        Some(SabotageLr::ReduceAs { reduce, production })
                            if reduce == self.reduces_done =>
                        {
                            (production, table.production(production))
                        }
                        _ => (p, table.production(p)),
                    };
                    if prod.rhs_len >= self.states.len() {
                        // An inconsistent table popping past the bottom
                        // marker: degrade to a rejection, not a panic
                        // (same defense as `would_accept_states`).
                        return Step::Rejected { state: s };
                    }
                    self.states.truncate(self.states.len() - prod.rhs_len);
                    let top = *self
                        .states
                        .last()
                        .expect("reduction popped the start state")
                        as usize;
                    let Some(g) = table.goto(top, prod.nt) else {
                        return Step::Rejected { state: top };
                    };
                    let mut alt = prod.alt as u32;
                    if let Some(SabotageLr::ReduceTag { reduce, tag }) = self.sabotage {
                        if reduce == self.reduces_done {
                            alt = tag as u32;
                        }
                    }
                    // The stack's last `rhs_len` roots are this node's
                    // children (`Cfg::derivation`'s right-nested tensor,
                    // `Unit` for an empty RHS) — implicit in the log.
                    self.log.reduce(alt, prod.rhs_len as u32);
                    self.reduces_done += 1;
                    if let Some(ct) = cert {
                        let expected = &ct.rhs_ids[p];
                        // RHS claim sequence + injection tag.
                        self.claims_checked += expected.len() as u64 + 1;
                        let popped_from = self.claims.len().checked_sub(expected.len());
                        let matches_rhs =
                            popped_from.is_some_and(|k| self.claims[k..] == expected[..]);
                        if !matches_rhs {
                            return Step::Faulted(ValidateError::ShapeMismatch {
                                expected: render_claims(expected),
                                found: render_claims(&self.claims[popped_from.unwrap_or(0)..]),
                            });
                        }
                        let logged = *self.log.entries().last().expect("just logged");
                        let tag_ok = matches!(
                            logged,
                            LogEntry::Reduce { alt, .. } if alt as usize == prod.alt
                        );
                        if !tag_ok {
                            return Step::Faulted(ValidateError::ShapeMismatch {
                                expected: intern::grammar(ct.var_ids[prod.nt]).to_string(),
                                found: logged.to_string(),
                            });
                        }
                        self.claims.truncate(popped_from.expect("checked above"));
                        self.claims.push(ct.var_ids[prod.nt]);
                    }
                    self.states.push(g as u32);
                    if fuel == 0 {
                        return Step::Rejected { state: g };
                    }
                    fuel -= 1;
                }
                Action::Accept => {
                    if let Some(ct) = cert {
                        self.claims_checked += 1;
                        let lone_start = self.depth() == 1
                            && self.claims.len() == 1
                            && self.claims[0] == ct.start_id;
                        if !lone_start {
                            return Step::Faulted(ValidateError::ShapeMismatch {
                                expected: intern::grammar(ct.start_id).to_string(),
                                found: render_claims(&self.claims),
                            });
                        }
                    }
                    return Step::Accepted(std::mem::take(&mut self.log));
                }
                Action::Error => return Step::Rejected { state: s },
            }
        }
    }
}

/// Parses `w` end to end, returning the derivation's log (of a tree in
/// [`Cfg::to_lambek`] shape) or a structured rejection. With `cert`
/// tables the run is incrementally certified; the outer `Err` is a
/// certification fault (never a plain rejection).
pub(crate) fn parse_log(
    table: &LrTable,
    cfg: &Cfg,
    cert: Option<&CertTables>,
    w: &GString,
) -> Result<Result<ReductionLog, LrReject>, ValidateError> {
    let mut m = Machine::with_capacity(w.len());
    for pos in 0..=w.len() {
        let sym = (pos < w.len()).then(|| w[pos]);
        match m.feed(table, cert, sym) {
            Step::Shifted => {}
            Step::Accepted(log) => return Ok(Ok(log)),
            Step::Rejected { state } => return Ok(Err(reject(table, cfg, pos, state))),
            Step::Faulted(cause) => return Err(cause),
        }
    }
    unreachable!("the EOF column only ever accepts or errors")
}

/// Probes whether ending the input at the current configuration would
/// accept: simulates the EOF reductions over a scratch copy of the state
/// stack (no trees are built, nothing is mutated).
pub(crate) fn would_accept_states(table: &LrTable, states: &[u32]) -> bool {
    would_accept_after_states(table, states, &[]).0
}

/// Probes whether consuming `extra` pending terminals and then ending
/// the input would accept, without touching the real stacks. Returns the
/// verdict plus the number of table actions simulated — the probe's
/// work, which is O(stack depth + pending) per call, not O(input).
pub(crate) fn would_accept_after_states(
    table: &LrTable,
    states: &[u32],
    extra: &[Symbol],
) -> (bool, usize) {
    // Virtual stack over the borrowed slice: `base_len` live entries of
    // `states`, then the `overlay` of states pushed by the simulated
    // reductions and shifts. The probe-per-symbol streaming pattern
    // would otherwise clone the whole stack on every probe — O(n²) over
    // a stream.
    let mut base_len = states.len();
    let mut overlay: Vec<u32> = Vec::new();
    let top = |base_len: usize, overlay: &[u32]| -> usize {
        *overlay.last().unwrap_or(&states[base_len - 1]) as usize
    };
    let mut steps = 0usize;
    let mut fuel = reduce_fuel(table, states.len() + extra.len());
    for k in 0..=extra.len() {
        let term = if k < extra.len() {
            match term_column(table, extra[k]) {
                Some(t) => t,
                None => return (false, steps),
            }
        } else {
            table.eof_column()
        };
        loop {
            steps += 1;
            match table.action(top(base_len, &overlay), term) {
                // Accept lives only in the `$` column, which is only
                // probed after the pending symbols are consumed.
                Action::Accept => return (true, steps),
                Action::Shift(t) => {
                    if k == extra.len() {
                        return (false, steps);
                    }
                    overlay.push(t as u32);
                    break;
                }
                Action::Reduce(p) => {
                    let prod = table.production(p);
                    let from_overlay = prod.rhs_len.min(overlay.len());
                    overlay.truncate(overlay.len() - from_overlay);
                    match base_len.checked_sub(prod.rhs_len - from_overlay) {
                        // Popping the bottom marker (or past it) is
                        // impossible for a consistent table; answered
                        // defensively.
                        None | Some(0) => return (false, steps),
                        Some(nb) => base_len = nb,
                    }
                    let Some(g) = table.goto(top(base_len, &overlay), prod.nt) else {
                        return (false, steps);
                    };
                    overlay.push(g as u32);
                    if fuel == 0 {
                        return (false, steps);
                    }
                    fuel -= 1;
                }
                Action::Error => return (false, steps),
            }
        }
    }
    unreachable!("the EOF column only ever accepts or errors")
}
