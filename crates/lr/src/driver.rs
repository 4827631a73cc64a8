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
//! The table is an untrusted artifact, so no loop trusts it to be
//! consistent: a reduction popping past the bottom marker, a missing
//! GOTO, a shift in the `$` column, an accept in a symbol column, or
//! more reductions between two shifts than a *fuel* bound allows, each
//! degrades into a structured rejection, never a panic or divergence.
//! Whatever else a corrupted table makes the parsing drivers log, the
//! certifier ([`CertTables`]) refuses.

use std::fmt;

use lambek_cfg::grammar::{Cfg, GSym};
use lambek_core::alphabet::{GString, Symbol};
use lambek_core::grammar::parse_tree::{LogEntry, ReductionLog, ValidateError};

use crate::table::{Action, LrTable};

/// The incremental certifier's own record of the grammar, read from the
/// [`Cfg`] at compile time and never from the table it checks (as in
/// Jourdan, Pottier & Leroy's LR(1) validator, ESOP 2012). Claims are
/// table-local ids: terminal `i` claims `i`, nonterminal `n` claims
/// `|Σ| + n`, so every per-step check is an integer comparison.
#[derive(Debug, Clone)]
pub(crate) struct CertTables {
    /// Per table production `p` (index 0, the synthetic `S' → S`, is
    /// unused): what a reduction by `p` must log and claim.
    prods: Vec<CertProduction>,
    /// The claim of a completed start symbol.
    start: u32,
    /// One display name per claim id, read only to render a fault.
    names: Vec<String>,
}

/// One production as the certifier knows it.
#[derive(Debug, Clone, Default)]
struct CertProduction {
    /// The claim a reduction pushes: `var(nt)`.
    claim: u32,
    /// The injection tag the reduction must log.
    alt: u32,
    /// The claims of the RHS symbols, in order (their number is the
    /// arity the reduction must log).
    rhs: Box<[u32]>,
}

impl CertTables {
    /// Reads the record of each of `table`'s productions from `cfg` (only
    /// the numbering `p ↦ (nt, alt)` comes from the table).
    pub(crate) fn build(table: &LrTable, cfg: &Cfg) -> CertTables {
        let n_terms = cfg.alphabet().len() as u32;
        let claim = |g: &GSym| match g {
            GSym::T(c) => c.index() as u32,
            GSym::N(n) => n_terms + *n as u32,
        };
        let mut prods = vec![CertProduction::default()];
        for p in 1..table.num_productions() {
            let pr = table.production(p);
            prods.push(CertProduction {
                claim: claim(&GSym::N(pr.nt)),
                alt: pr.alt as u32,
                rhs: cfg.alternatives(pr.nt)[pr.alt]
                    .rhs
                    .iter()
                    .map(claim)
                    .collect(),
            });
        }
        let names = cfg
            .alphabet()
            .names()
            .iter()
            .map(|c| format!("'{c}'"))
            .chain((0..cfg.num_nonterminals()).map(|n| cfg.name(n).to_owned()))
            .collect();
        CertTables {
            prods,
            start: claim(&GSym::N(cfg.start())),
            names,
        }
    }

    /// Renders a claim sequence for a fault report.
    fn render(&self, ids: &[u32]) -> String {
        let parts: Vec<&str> = ids.iter().map(|&id| &*self.names[id as usize]).collect();
        if parts.is_empty() {
            "ε".to_owned()
        } else {
            parts.join(" ⊗ ")
        }
    }
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
                // An accept only counts in the `$` column.
                Action::Accept => return pos == w.len(),
                Action::Error => return false,
            }
        }
    }
    // A shift in the `$` column.
    false
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
    /// One claim id per stack slot (= per log root): the grammar that
    /// subtree is claimed (and, inductively, checked) to parse (see
    /// [`CertTables`]). Maintained only when `feed` runs with
    /// certification tables.
    claims: Vec<u32>,
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
            shifts_done: 0,
            reduces_done: 0,
            claims_checked: 0,
            flushed: (0, 0, 0),
        }
    }

    /// `(shifts, reduces)` performed so far.
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
    /// With `cert` tables, every step is certified as it happens, against
    /// the certifier's production record, never the table's: a shift
    /// claims the input symbol it logs, a reduction's closed children
    /// must claim exactly the production's RHS and its log entry must
    /// carry the production's tag and arity, and the accepted stack must
    /// be a lone start-symbol claim. Together these O(1) checks keep
    /// every root of the log a tree that `check_shape`s against its
    /// claim and yields the input slice it covers — so an `Accepted` log
    /// needs no whole-tree `validate`.
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

    /// The step itself. Inlined into [`Machine::feed`], so the
    /// shift/reduce loop runs in its frame (one call per pushed symbol,
    /// not two) and the probe flush stays outside the loop.
    #[inline(always)]
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
                    // A shift in the `$` column: nothing to shift.
                    let Some(sym) = sym else {
                        return Step::Rejected { state: s };
                    };
                    self.shifts_done += 1;
                    if cert.is_some() {
                        self.claims.push(sym.index() as u32);
                    }
                    self.log.shift(sym);
                    self.states.push(t as u32);
                    return Step::Shifted;
                }
                Action::Reduce(p) => {
                    let prod = table.production(p);
                    if prod.rhs_len >= self.states.len() {
                        // An inconsistent table popping past the bottom
                        // marker: degrade to a rejection, not a panic
                        // (same defense as `would_accept_after_states`).
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
                    // The stack's last `rhs_len` roots are this node's
                    // children (`Cfg::derivation`'s right-nested tensor,
                    // `Unit` for an empty RHS) — implicit in the log.
                    self.log.reduce(prod.alt as u32, prod.rhs_len as u32);
                    self.reduces_done += 1;
                    if let Some(ct) = cert {
                        let rec = &ct.prods[p];
                        // RHS claim sequence + logged tag and arity.
                        self.claims_checked += rec.rhs.len() as u64 + 1;
                        let popped_from = self.claims.len().checked_sub(rec.rhs.len());
                        // Element-wise: `==` on `[u32]` calls `memcmp`,
                        // which costs more than these few claims.
                        let matches_rhs =
                            popped_from.is_some_and(|k| self.claims[k..].iter().eq(rec.rhs.iter()));
                        if !matches_rhs {
                            return Step::Faulted(ValidateError::ShapeMismatch {
                                expected: ct.render(&rec.rhs),
                                found: ct.render(&self.claims[popped_from.unwrap_or(0)..]),
                            });
                        }
                        let logged = *self.log.entries().last().expect("just logged");
                        let recorded = LogEntry::Reduce {
                            alt: rec.alt,
                            arity: rec.rhs.len() as u32,
                        };
                        if logged != recorded {
                            return Step::Faulted(ValidateError::ShapeMismatch {
                                expected: format!("{} by {recorded}", ct.render(&[rec.claim])),
                                found: logged.to_string(),
                            });
                        }
                        self.claims.truncate(popped_from.expect("checked above"));
                        self.claims.push(rec.claim);
                    }
                    self.states.push(g as u32);
                    if fuel == 0 {
                        return Step::Rejected { state: g };
                    }
                    fuel -= 1;
                }
                // An accept in a symbol column would drop the input.
                Action::Accept if sym.is_some() => return Step::Rejected { state: s },
                Action::Accept => {
                    if let Some(ct) = cert {
                        self.claims_checked += 1;
                        let lone_start = self.depth() == 1
                            && self.claims.len() == 1
                            && self.claims[0] == ct.start;
                        if !lone_start {
                            return Step::Faulted(ValidateError::ShapeMismatch {
                                expected: ct.render(&[ct.start]),
                                found: ct.render(&self.claims),
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
                // An accept only counts in the `$` column.
                Action::Accept => return (k == extra.len(), steps),
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
