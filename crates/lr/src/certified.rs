//! The certified wrapper: every derivation that leaves the LR subsystem
//! is checked against the grammar before it escapes.
//!
//! The LR driver is fast *extrinsically* verified code: nothing about
//! the dense tables guarantees by construction that the reductions it
//! logs are parses of the input. [`CertifiedLrParser`] restores the
//! paper's intrinsic-verification contract at the subsystem boundary —
//! **incrementally**: every shift and every reduction is certified as it
//! happens, by comparing interned grammar ids ([`CertTables`] built once
//! at compile time) in O(1) per step. The per-step checks maintain the
//! invariant that each root of the run's [`ReductionLog`] materializes
//! to a tree that `check_shape`s against its claimed grammar and yields
//! exactly the input slice it covers, so an accepted log's
//! [`ReductionLog::to_parse_tree`] satisfies the whole-tree
//! [`validate`](lambek_core::grammar::parse_tree::validate) contract
//! without ever being built, let alone re-walked. A driver bug therefore
//! cannot leak an invalid derivation; it surfaces as a [`CertifyError`]
//! *at the offending step*.
//!
//! The pre-incremental path — run the driver blind, then `validate` the
//! whole materialized tree at the end — is retained behind
//! [`CertifiedLrParser::parse_full`] and
//! [`CertifiedLrParser::stream_full`]; the differential property suite
//! asserts the two paths accept and reject identically.

use std::fmt;
use std::sync::Arc;

use lambek_cfg::grammar::Cfg;
use lambek_core::alphabet::{GString, Symbol};
use lambek_core::grammar::expr::Grammar;
use lambek_core::grammar::parse_tree::{validate, ParseTree, ReductionLog, ValidateError};

use crate::driver::{
    log_capacity, parse_log, recognize_states, would_accept_after_states, would_accept_states,
    CertTables, ClaimRef, Machine, SabotageLr, Step,
};
use crate::table::{LrConflictReport, LrTable};

/// The outcome of a certified LR parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LrOutcome {
    /// The input is in the grammar; here is the run's reduction log,
    /// every step of it certified against the μ-regular grammar and the
    /// input string ([`ReductionLog::to_parse_tree`] materializes the
    /// tree).
    Accept(ReductionLog),
    /// The input is not in the grammar; the report says where the driver
    /// stopped and what it expected.
    Reject(crate::driver::LrReject),
}

impl LrOutcome {
    /// The accepted derivation's log, if any.
    pub fn accepted(&self) -> Option<&ReductionLog> {
        match self {
            LrOutcome::Accept(t) => Some(t),
            LrOutcome::Reject(_) => None,
        }
    }

    /// `true` on acceptance.
    pub fn is_accept(&self) -> bool {
        matches!(self, LrOutcome::Accept(_))
    }
}

/// A violation of the certification contract: the driver logged a step
/// the checker refused. This never happens for a correctly built
/// table; it is surfaced (rather than panicking) so callers can treat it
/// as an internal error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyError {
    /// The checker's verdict on the offending step.
    pub cause: ValidateError,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LR driver logged an invalid derivation step: {}",
            self.cause
        )
    }
}

impl std::error::Error for CertifyError {}

/// The shared immutable heart of a compiled LR parser: the grammar (in
/// both representations), its dense tables, and the interned-id tables
/// the incremental certifier compares against. One allocation, shared by
/// the parser and every stream opened from it.
#[derive(Debug)]
struct LrCore {
    cfg: Cfg,
    grammar: Grammar,
    table: LrTable,
    cert: CertTables,
}

/// A linear-time LR(1)/LALR parser whose every output derivation is
/// certified against the grammar — incrementally, one interned-id
/// comparison per shift and per reduction.
///
/// Construction rejects grammars with unresolvable conflicts
/// ([`LrConflictReport`] points at the offending item sets); parsing is
/// a table-driven shift-reduce run with the certification checks fused
/// into each step. Cloning is cheap (`Arc`-shared core), and the parser
/// is `Send + Sync`, so one compiled instance can serve many threads.
///
/// # Examples
///
/// ```
/// use lambek_cfg::dyck::{dyck_cfg, Parens};
/// use lambek_lr::CertifiedLrParser;
///
/// let p = Parens::new();
/// let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).unwrap();
/// let w = p.alphabet.parse_str("(())()").unwrap();
/// let log = parser.parse(&w).unwrap().accepted().cloned().unwrap();
/// assert_eq!(log.to_parse_tree().flatten(), w); // intrinsic: the yield IS the input
/// assert!(!parser.recognizes(&p.alphabet.parse_str("())").unwrap()));
/// ```
#[derive(Debug, Clone)]
pub struct CertifiedLrParser {
    core: Arc<LrCore>,
}

impl CertifiedLrParser {
    /// Builds the LALR(1) tables for `cfg` and wraps them with the
    /// certification layer (including the interned-id tables the
    /// incremental checks compare against).
    ///
    /// # Errors
    ///
    /// Returns the structured conflict report when the grammar is not
    /// LALR(1) — callers typically fall back to Earley.
    pub fn compile(cfg: &Cfg) -> Result<CertifiedLrParser, LrConflictReport> {
        let table = LrTable::build(cfg)?;
        let cert = CertTables::build(&table, cfg);
        Ok(CertifiedLrParser {
            core: Arc::new(LrCore {
                grammar: cfg.to_lambek(),
                cfg: cfg.clone(),
                table,
                cert,
            }),
        })
    }

    /// The grammar the tables were built from.
    pub fn cfg(&self) -> &Cfg {
        &self.core.cfg
    }

    /// The μ-regular encoding derivations are certified against.
    pub fn grammar(&self) -> &Grammar {
        &self.core.grammar
    }

    /// The dense ACTION/GOTO tables (introspection and benchmarks).
    pub fn table(&self) -> &LrTable {
        &self.core.table
    }

    /// Whether `w` is in the grammar — a pure table run, no log, no
    /// allocation beyond the state stack.
    pub fn recognizes(&self, w: &GString) -> bool {
        recognize_states(&self.core.table, w)
    }

    /// Parses `w`: a linear shift-reduce run with every step certified
    /// as it happens. The accepted log needs no whole-tree validation —
    /// the per-step checks compose to exactly that contract. The run
    /// allocates its state stack, claim stack and log once each, sized
    /// from `w`; no node is boxed.
    ///
    /// # Errors
    ///
    /// [`CertifyError`] if the driver produced a step the incremental
    /// checker rejects — impossible for a correctly constructed table,
    /// surfaced instead of trusted.
    pub fn parse(&self, w: &GString) -> Result<LrOutcome, CertifyError> {
        match parse_log(&self.core.table, &self.core.cfg, Some(&self.core.cert), w) {
            Ok(Ok(log)) => Ok(LrOutcome::Accept(log)),
            Ok(Err(reject)) => Ok(LrOutcome::Reject(reject)),
            Err(cause) => Err(CertifyError { cause }),
        }
    }

    /// The `full_validate` path: runs the driver blind, materializes the
    /// tree and re-validates it whole at the end, exactly as the
    /// subsystem worked before incremental certification. Kept so the differential harness can
    /// assert incremental ≡ full on every input.
    ///
    /// # Errors
    ///
    /// [`CertifyError`] under the same (driver-bug) conditions as
    /// [`CertifiedLrParser::parse`].
    pub fn parse_full(&self, w: &GString) -> Result<LrOutcome, CertifyError> {
        match parse_log(&self.core.table, &self.core.cfg, None, w) {
            Ok(Ok(log)) => {
                validate_log(&log, &self.core.grammar, w)?;
                Ok(LrOutcome::Accept(log))
            }
            Ok(Err(reject)) => Ok(LrOutcome::Reject(reject)),
            Err(_) => unreachable!("the uncertified driver never faults"),
        }
    }

    /// Opens a push-mode stream over this parser, with incremental
    /// certification: each push is checked as it happens and
    /// [`LrStream::finish`] performs no whole-tree validation.
    pub fn stream(&self) -> LrStream {
        LrStream {
            core: self.core.clone(),
            machine: Machine::new(),
            input: GString::new(),
            dead: None,
            fault: None,
            full_validate: false,
        }
    }

    /// Opens a stream on the `full_validate` path: pushes run the driver
    /// blind and [`LrStream::finish`] re-validates the whole tree, as
    /// before incremental certification. Kept for the differential
    /// harness.
    pub fn stream_full(&self) -> LrStream {
        LrStream {
            full_validate: true,
            ..self.stream()
        }
    }

    /// Opens a fused-path sink over this parser, with the state stack
    /// and the log pre-sized for roughly `n` pushes (a hint, not a
    /// bound): the incremental-certification machine and nothing else.
    /// Unlike [`LrStream`], a sink does not retain the pushed input (no
    /// per-push `GString` growth) and supports no snapshot/resume or
    /// acceptance probes — it exists so a lexer can feed shifts
    /// straight into the LR stack with zero bookkeeping beyond the
    /// parse itself. Rejections carry the *index* of the offending
    /// pushed symbol; the caller (which knows each symbol's provenance)
    /// maps that back to source spans.
    pub fn sink_with_capacity(&self, n: usize) -> LrSink {
        LrSink {
            core: self.core.clone(),
            machine: Machine::with_capacity(n),
            pushed: 0,
            dead: None,
            fault: None,
        }
    }
}

/// The fused lex→LR feed (see [`CertifiedLrParser::sink_with_capacity`]): every push
/// is a certified shift (plus its pending certified reductions) into
/// the machine, with no input retention and no other state. Once a
/// rejection or fault is recorded, later pushes only advance the index.
#[derive(Debug)]
pub struct LrSink {
    core: Arc<LrCore>,
    machine: Machine,
    /// How many symbols have been pushed (the index space rejections
    /// are reported in).
    pushed: usize,
    /// Set at the first rejected symbol; later pushes are ignored.
    dead: Option<crate::driver::LrReject>,
    /// Set at the first certification fault; later pushes are ignored.
    fault: Option<CertifyError>,
}

impl LrSink {
    /// Consumes one symbol. Returns `false` once the pushed sequence has
    /// stopped being a viable prefix (the sink stays usable; it just
    /// remembers the first rejection for [`LrSink::finish`]).
    #[inline]
    pub fn push(&mut self, sym: Symbol) -> bool {
        if self.dead.is_some() || self.fault.is_some() {
            self.pushed += 1;
            return false;
        }
        match self
            .machine
            .feed(&self.core.table, Some(&self.core.cert), Some(sym))
        {
            Step::Shifted => {
                self.pushed += 1;
                true
            }
            Step::Rejected { state } => {
                self.dead = Some(crate::driver::LrReject {
                    at: self.pushed,
                    state,
                    expected: self.core.table.expected_in(&self.core.cfg, state),
                });
                self.pushed += 1;
                false
            }
            Step::Faulted(cause) => {
                self.fault = Some(CertifyError { cause });
                self.pushed += 1;
                false
            }
            Step::Accepted(_) => unreachable!("accept lives in the EOF column only"),
        }
    }

    /// Ends the input: runs the remaining certified reductions.
    /// Rejections report `at` as a pushed-symbol index (the number of
    /// pushes for "the input ended while more was expected").
    ///
    /// # Errors
    ///
    /// [`CertifyError`] under the same (driver-bug) conditions as
    /// [`CertifiedLrParser::parse`].
    pub fn finish(mut self) -> Result<LrOutcome, CertifyError> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        if let Some(reject) = self.dead {
            return Ok(LrOutcome::Reject(reject));
        }
        match self
            .machine
            .feed(&self.core.table, Some(&self.core.cert), None)
        {
            Step::Accepted(log) => Ok(LrOutcome::Accept(log)),
            Step::Rejected { state } => Ok(LrOutcome::Reject(crate::driver::LrReject {
                at: self.pushed,
                state,
                expected: self.core.table.expected_in(&self.core.cfg, state),
            })),
            Step::Faulted(cause) => Err(CertifyError { cause }),
            Step::Shifted => unreachable!("the EOF column never shifts"),
        }
    }
}

/// A push-mode incremental LR parse: one shift (plus any pending
/// reductions) per [`LrStream::push`], O(1) amortized over the input via
/// the dense tables.
///
/// The partial derivations of the viable prefix live in the stream's
/// log, one root per stack slot, each already certified against its
/// claimed grammar, so
/// [`LrStream::finish`] completes in time proportional to the
/// *remaining* reductions, not the whole input. Acceptance probes
/// ([`LrStream::would_accept`]) simulate the end-of-input reductions
/// over a scratch copy of the state stack without disturbing the parse.
#[derive(Debug, Clone)]
pub struct LrStream {
    core: Arc<LrCore>,
    machine: Machine,
    input: GString,
    /// Set at the first rejected symbol; later pushes are ignored.
    dead: Option<crate::driver::LrReject>,
    /// Set at the first certification fault; later pushes are ignored.
    fault: Option<CertifyError>,
    /// `true` runs the pre-incremental path: no per-step checks, one
    /// whole-tree `validate` of the materialized tree at `finish`.
    full_validate: bool,
}

impl LrStream {
    /// Consumes one symbol. Returns `false` once the accumulated input
    /// has stopped being a viable prefix (the stream stays usable; it
    /// just remembers the rejection for [`LrStream::finish`]).
    pub fn push(&mut self, sym: Symbol) -> bool {
        if self.dead.is_some() || self.fault.is_some() {
            self.input.push(sym);
            return false;
        }
        let cert = (!self.full_validate).then_some(&self.core.cert);
        let step = self.machine.feed(&self.core.table, cert, Some(sym));
        match step {
            Step::Shifted => {
                self.input.push(sym);
                true
            }
            Step::Rejected { state } => {
                self.dead = Some(crate::driver::LrReject {
                    at: self.input.len(),
                    state,
                    expected: self.core.table.expected_in(&self.core.cfg, state),
                });
                self.input.push(sym);
                false
            }
            Step::Faulted(cause) => {
                self.fault = Some(CertifyError { cause });
                self.input.push(sym);
                false
            }
            Step::Accepted(_) => unreachable!("accept lives in the EOF column only"),
        }
    }

    /// Consumes a whole string.
    pub fn push_all(&mut self, w: &GString) {
        for sym in w.iter() {
            self.push(sym);
        }
    }

    /// Number of symbols consumed so far.
    pub fn len(&self) -> usize {
        self.input.len()
    }

    /// `true` if nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }

    /// The input consumed so far.
    pub fn input(&self) -> &GString {
        &self.input
    }

    /// Number of partial derivations currently on the stack (a measure
    /// of how much structure is still open).
    pub fn pending(&self) -> usize {
        self.machine.depth()
    }

    /// `true` while the consumed input is still a viable prefix of some
    /// sentence (and no certification fault has been recorded).
    pub fn is_viable(&self) -> bool {
        self.dead.is_none() && self.fault.is_none()
    }

    /// The first certification fault, if the incremental checker caught
    /// one mid-stream. `None` for honest drivers.
    pub fn fault(&self) -> Option<&CertifyError> {
        self.fault.as_ref()
    }

    /// Whether the input so far would be accepted if the stream ended
    /// here — an end-of-input simulation over a scratch state stack,
    /// without logging anything or disturbing the parse.
    pub fn would_accept(&self) -> bool {
        self.is_viable() && would_accept_states(&self.core.table, self.machine.states())
    }

    /// Like [`LrStream::would_accept`], but as if the terminals in
    /// `extra` were pushed first. The probe simulates over a scratch
    /// overlay of the state stack — O(stack depth + pending reductions)
    /// per call, never a clone of the stream or its input.
    pub fn would_accept_after<I>(&self, extra: I) -> bool
    where
        I: IntoIterator<Item = Symbol>,
    {
        self.would_accept_after_counted(extra).0
    }

    /// [`LrStream::would_accept_after`] plus the number of table actions
    /// the probe simulated — exposed so regression tests can pin the
    /// probe's cost to O(stack depth), not O(input).
    #[doc(hidden)]
    pub fn would_accept_after_counted<I>(&self, extra: I) -> (bool, usize)
    where
        I: IntoIterator<Item = Symbol>,
    {
        if !self.is_viable() {
            return (false, 0);
        }
        let extra: Vec<Symbol> = extra.into_iter().collect();
        would_accept_after_states(&self.core.table, self.machine.states(), &extra)
    }

    /// Installs a fault injection on the underlying machine (test-only;
    /// see [`SabotageLr`]). The adversarial suites use this to prove the
    /// incremental checker catches a corrupted step *at that step*.
    #[doc(hidden)]
    pub fn sabotage(&mut self, s: SabotageLr) {
        self.machine.set_sabotage(s);
    }

    /// `(shifts, reduces)` the machine has performed so far — the step
    /// counters [`SabotageLr`] indices refer to (test-only).
    #[doc(hidden)]
    pub fn step_counts(&self) -> (usize, usize) {
        self.machine.step_counts()
    }

    /// Ends the stream: runs the remaining reductions. On the
    /// incremental path the resulting log is already certified — the
    /// per-step checks compose to the whole-tree contract; on the
    /// `full_validate` path the tree is materialized and re-validated
    /// here.
    ///
    /// # Errors
    ///
    /// [`CertifyError`] under the same (driver-bug) conditions as
    /// [`CertifiedLrParser::parse`].
    pub fn finish(mut self) -> Result<LrOutcome, CertifyError> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        if let Some(reject) = self.dead {
            return Ok(LrOutcome::Reject(reject));
        }
        let cert = (!self.full_validate).then_some(&self.core.cert);
        match self.machine.feed(&self.core.table, cert, None) {
            Step::Accepted(log) => {
                if self.full_validate {
                    validate_log(&log, &self.core.grammar, &self.input)?;
                }
                Ok(LrOutcome::Accept(log))
            }
            Step::Rejected { state } => Ok(LrOutcome::Reject(crate::driver::LrReject {
                at: self.input.len(),
                state,
                expected: self.core.table.expected_in(&self.core.cfg, state),
            })),
            Step::Faulted(cause) => Err(CertifyError { cause }),
            Step::Shifted => unreachable!("the EOF column never shifts"),
        }
    }
}

/// The extracted, process-independent state of an [`LrStream`] — the
/// state-extraction half of session park/resume (the serving engine's
/// snapshot format serializes exactly this).
///
/// Interned [`lambek_core::intern::GrammarId`]s are process-local, so
/// the claim stack is exported as [`ClaimRef`]s (terminal/nonterminal
/// *numbers*) and mapped back through the resuming parser's id tables.
/// Everything here is data; all trust is re-established by
/// [`CertifiedLrParser::resume_stream`], which re-validates the parts
/// against the table and the grammar before any of them touch a live
/// machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrStreamState {
    /// The LR state stack, bottom marker (state 0) first.
    pub states: Vec<u32>,
    /// The partial-derivation stack, one tree per non-bottom state (the
    /// stream's log roots, materialized: the wire format predates the
    /// log and keeps trees).
    pub trees: Vec<ParseTree>,
    /// The certification claims, parallel to `trees`.
    pub claims: Vec<ClaimRef>,
    /// Shifts performed so far (equals the consumed-symbol count).
    pub shifts: usize,
    /// Reductions performed so far.
    pub reduces: usize,
    /// Every symbol pushed so far, rejected suffix included.
    pub input: GString,
    /// `Some((at, state))` if the stream is dead: the input position of
    /// the first rejected symbol and the state that had no action for
    /// it. The human-readable expected set is recomputed on resume.
    pub dead: Option<(usize, usize)>,
}

/// A session blob failed re-validation against the parser it was
/// resumed into (see [`CertifiedLrParser::resume_stream`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrResumeError {
    /// What was inconsistent.
    pub reason: String,
}

impl fmt::Display for LrResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LR stream state failed re-validation: {}", self.reason)
    }
}

impl std::error::Error for LrResumeError {}

impl LrStream {
    /// Extracts the stream's state for serialization. Returns `None`
    /// for faulted streams (a certification fault is a driver bug; the
    /// faulted configuration is not a parse state worth parking) and
    /// for `full_validate` streams (they carry no claim stack to
    /// re-establish on resume).
    pub fn export_state(&self) -> Option<LrStreamState> {
        if self.fault.is_some() || self.full_validate {
            return None;
        }
        let claims: Option<Vec<ClaimRef>> = self
            .machine
            .claims()
            .iter()
            .map(|&id| self.core.cert.claim_ref(id))
            .collect();
        Some(LrStreamState {
            states: self.machine.states().to_vec(),
            trees: self.machine.log().to_parse_trees(),
            claims: claims?,
            shifts: self.machine.step_counts().0,
            reduces: self.machine.step_counts().1,
            input: self.input.clone(),
            dead: self.dead.as_ref().map(|r| (r.at, r.state)),
        })
    }
}

/// The `full_validate` check: materializes the log's tree and validates
/// it whole against the grammar and the input.
fn validate_log(log: &ReductionLog, grammar: &Grammar, w: &GString) -> Result<(), CertifyError> {
    let tree = log.to_parse_tree();
    validate(&tree, grammar, w).map_err(|cause| CertifyError { cause })
}

impl CertifiedLrParser {
    /// Re-injects extracted stream state — the other half of session
    /// park/resume. The blob is *untrusted*: before anything touches a
    /// live machine, every part is re-validated against this parser:
    ///
    /// * the state stack must start at the bottom marker and every
    ///   transition must be one this parser's table actually performs
    ///   for the claimed symbol (shift target for a terminal claim,
    ///   goto target for a nonterminal claim) — so the restored
    ///   configuration is reachable, and future behaviour is exactly
    ///   that of an uninterrupted run;
    /// * every partial tree is re-checked against its claimed grammar
    ///   (`check_shape` against the μ-system for nonterminals, a leaf
    ///   comparison for terminals), and the tree yields must tile the
    ///   consumed input prefix exactly — re-establishing the
    ///   incremental certifier's stack invariant, so everything the
    ///   resumed stream ever emits is as certified as if the session
    ///   had never been interrupted.
    ///
    /// # Errors
    ///
    /// [`LrResumeError`] describing the first inconsistency; the error
    /// path constructs no stream (a bogus blob can be *rejected*, never
    /// mis-certified).
    pub fn resume_stream(&self, st: LrStreamState) -> Result<LrStream, LrResumeError> {
        let err = |reason: String| LrResumeError { reason };
        let table = &self.core.table;
        let n_states = table.num_states();
        if st.states.first() != Some(&0) {
            return Err(err("state stack must start at the bottom marker".into()));
        }
        if let Some(&s) = st.states.iter().find(|&&s| s as usize >= n_states) {
            return Err(err(format!("state {s} out of range (< {n_states})")));
        }
        if st.trees.len() != st.claims.len() || st.states.len() != st.trees.len() + 1 {
            return Err(err(format!(
                "stack arity mismatch: {} states, {} trees, {} claims",
                st.states.len(),
                st.trees.len(),
                st.claims.len()
            )));
        }
        // Transition consistency: each stack slot must be the table's
        // own answer for its claim.
        for (i, &claim) in st.claims.iter().enumerate() {
            let from = st.states[i] as usize;
            let to = st.states[i + 1] as usize;
            let ok = match claim {
                ClaimRef::Term(t) => {
                    t < table.eof_column()
                        && matches!(table.action(from, t), crate::table::Action::Shift(s) if s == to)
                }
                ClaimRef::Var(n) => n < table.num_nonterminals() && table.goto(from, n) == Some(to),
            };
            if !ok {
                return Err(err(format!(
                    "stack slot {i}: no {claim:?} transition {from} -> {to} in this table"
                )));
            }
        }
        // Claim-by-claim re-certification: shapes against the μ-system,
        // yields tiling the consumed prefix.
        let system = self.core.cfg.to_lambek_system();
        let mut cursor = 0usize;
        let mut claim_ids = Vec::with_capacity(st.claims.len());
        let mut log = ReductionLog::with_capacity(log_capacity(st.input.len()));
        for (i, (tree, &claim)) in st.trees.iter().zip(&st.claims).enumerate() {
            let id = self
                .core
                .cert
                .claim_id(claim)
                .ok_or_else(|| err(format!("stack slot {i}: claim {claim:?} out of range")))?;
            let flat = tree.flatten();
            let window = st.input.as_slice().get(cursor..cursor + flat.len());
            if window != Some(flat.as_slice()) {
                return Err(err(format!(
                    "stack slot {i}: tree yield does not tile the input at symbol {cursor}"
                )));
            }
            match claim {
                ClaimRef::Term(t) => {
                    if !matches!(tree, ParseTree::Char(c) if c.index() == t) {
                        return Err(err(format!(
                            "stack slot {i}: terminal claim {t} over a non-leaf tree"
                        )));
                    }
                }
                ClaimRef::Var(n) => {
                    if n >= system.len() {
                        return Err(err(format!("stack slot {i}: nonterminal {n} out of range")));
                    }
                    let ParseTree::Roll(inner) = tree else {
                        return Err(err(format!(
                            "stack slot {i}: nonterminal claim over a non-Roll tree"
                        )));
                    };
                    lambek_core::grammar::parse_tree::check_shape(
                        inner,
                        system.def(n),
                        Some(&system),
                    )
                    .map_err(|e| err(format!("stack slot {i}: claim re-validation failed: {e}")))?;
                }
            }
            // A re-validated tree is a derivation (a leaf, or `roll σ`
            // over the claim's right-hand side), so it always reads back.
            let segment = ReductionLog::from_parse_tree(tree)
                .ok_or_else(|| err(format!("stack slot {i}: tree is not a derivation")))?;
            log.append(&segment);
            cursor += flat.len();
            claim_ids.push(id);
        }
        // The consumed prefix must be exactly the tiled symbols; the
        // suffix beyond it exists only for dead streams.
        let consumed = cursor;
        let dead = match st.dead {
            None => {
                if consumed != st.input.len() {
                    return Err(err(format!(
                        "live stream consumed {consumed} of {} symbols",
                        st.input.len()
                    )));
                }
                None
            }
            Some((at, state)) => {
                if at != consumed || at > st.input.len() {
                    return Err(err(format!(
                        "dead stream rejected at {at} but tiled {consumed} symbols"
                    )));
                }
                if state >= n_states {
                    return Err(err(format!("rejecting state {state} out of range")));
                }
                Some(crate::driver::LrReject {
                    at,
                    state,
                    expected: table.expected_in(&self.core.cfg, state),
                })
            }
        };
        if st.shifts != consumed {
            return Err(err(format!(
                "shift counter {} disagrees with {consumed} consumed symbols",
                st.shifts
            )));
        }
        Ok(LrStream {
            core: self.core.clone(),
            machine: Machine::from_parts(st.states, log, claim_ids, st.shifts, st.reduces),
            input: st.input,
            dead,
            fault: None,
            full_validate: false,
        })
    }
}
