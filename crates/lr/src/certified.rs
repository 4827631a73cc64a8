//! The certified wrapper: every derivation that leaves the LR subsystem
//! is checked against the grammar before it escapes.
//!
//! The LR driver is fast *extrinsically* verified code: nothing about
//! the dense tables guarantees by construction that the reductions it
//! logs are parses of the input. [`CertifiedLrParser`] restores the
//! paper's intrinsic-verification contract at the subsystem boundary —
//! **incrementally**: every shift and every reduction is certified as it
//! happens, by comparing claim ids against the certifier's own record
//! of the grammar ([`CertTables`], read from the `Cfg` once at compile
//! time) in O(1) per step. The per-step checks maintain the
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
//! whole materialized tree at the end — is retained behind the one-shot
//! [`CertifiedLrParser::parse_full`]; the differential property suite
//! asserts the two paths accept and reject identically.
//!
//! Streams have the one certified path. A parked stream is resumed by
//! pushing its input into a fresh stream: the serving engine's session
//! blobs carry nothing else.

use std::fmt;
use std::sync::Arc;

use lambek_cfg::grammar::Cfg;
use lambek_core::alphabet::{GString, Symbol};
use lambek_core::grammar::expr::Grammar;
use lambek_core::grammar::parse_tree::{validate, ReductionLog, ValidateError};

use crate::driver::{
    parse_log, recognize_states, would_accept_after_states, CertTables, Machine, Step,
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

/// The shared immutable heart of a compiled LR parser: the grammar, its
/// dense tables, and the incremental certifier's own record of the
/// grammar. One allocation, shared by the parser and every stream
/// opened from it.
#[derive(Debug)]
struct LrCore {
    cfg: Cfg,
    table: LrTable,
    cert: CertTables,
}

/// A linear-time LR(1)/LALR parser whose every output derivation is
/// certified against the grammar — incrementally, a few claim-id
/// comparisons per shift and per reduction.
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
    /// certification layer (including the production record the
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
                cfg: cfg.clone(),
                table,
                cert,
            }),
        })
    }

    /// Test support: this parser with its tables replaced by `table` (a
    /// corrupted copy, see [`LrTable::set_action`]), under the certifier
    /// built from the honest compile. Panics unless `table` has this
    /// parser's terminal columns and productions.
    #[doc(hidden)]
    pub fn with_table(&self, table: LrTable) -> CertifiedLrParser {
        let shape = |t: &LrTable| (t.num_terminals(), t.num_productions());
        assert_eq!(shape(&table), shape(&self.core.table), "another shape");
        CertifiedLrParser {
            core: Arc::new(LrCore {
                cfg: self.core.cfg.clone(),
                table,
                cert: self.core.cert.clone(),
            }),
        }
    }

    /// The grammar the tables were built from.
    pub fn cfg(&self) -> &Cfg {
        &self.core.cfg
    }

    /// The μ-regular encoding derivations are certified against.
    pub fn grammar(&self) -> &Grammar {
        self.core.cfg.lambek()
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

    /// The whole-tree reference path: runs the driver blind, materializes
    /// the tree and re-validates it whole at the end, exactly as the
    /// subsystem worked before incremental certification. Kept so the
    /// differential harness can assert incremental ≡ full on every input.
    ///
    /// # Errors
    ///
    /// [`CertifyError`] under the same (driver-bug) conditions as
    /// [`CertifiedLrParser::parse`], including an accept whose log is
    /// not exactly one tree (which the blind drive cannot rule out).
    pub fn parse_full(&self, w: &GString) -> Result<LrOutcome, CertifyError> {
        match parse_log(&self.core.table, &self.core.cfg, None, w) {
            Ok(Ok(log)) if log.roots() != 1 => Err(CertifyError {
                cause: ValidateError::ShapeMismatch {
                    expected: "one derivation tree".to_owned(),
                    found: format!("a log of {} trees", log.roots()),
                },
            }),
            Ok(Ok(log)) => {
                validate(&log.to_parse_tree(), self.grammar(), w)
                    .map_err(|cause| CertifyError { cause })?;
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
            sink: self.sink_with_capacity(0),
            input: GString::new(),
        }
    }

    /// Opens a fused-path sink over this parser, with the state stack
    /// and the log pre-sized for roughly `n` pushes (a hint, not a
    /// bound): the incremental-certification machine and nothing else.
    /// An [`LrStream`] is a sink plus the pushed input; a sink alone
    /// retains no input (no per-push `GString` growth) and supports no
    /// snapshot/resume or acceptance probes — it exists so a lexer can
    /// feed shifts straight into the LR stack with zero bookkeeping
    /// beyond the parse itself. Rejections carry the *index* of the offending
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
#[derive(Debug, Clone)]
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
        let at = self.pushed;
        self.pushed += 1;
        if !self.is_viable() {
            return false;
        }
        match self
            .machine
            .feed(&self.core.table, Some(&self.core.cert), Some(sym))
        {
            Step::Shifted => true,
            Step::Rejected { state } => {
                self.dead = Some(crate::driver::LrReject {
                    at,
                    state,
                    expected: self.core.table.expected_in(&self.core.cfg, state),
                });
                false
            }
            Step::Faulted(cause) => {
                self.fault = Some(CertifyError { cause });
                false
            }
            Step::Accepted(_) => unreachable!("accept lives in the EOF column only"),
        }
    }

    /// `true` while no rejection or certification fault is recorded.
    fn is_viable(&self) -> bool {
        self.dead.is_none() && self.fault.is_none()
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
/// the dense tables. It is an [`LrSink`] that also keeps the pushed
/// input, which session snapshots carry and resume replays.
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
    sink: LrSink,
    /// Every symbol pushed so far, rejected suffix included.
    input: GString,
}

impl LrStream {
    /// Consumes one symbol. Returns `false` once the accumulated input
    /// has stopped being a viable prefix (the stream stays usable; it
    /// just remembers the rejection for [`LrStream::finish`]).
    pub fn push(&mut self, sym: Symbol) -> bool {
        self.input.push(sym);
        self.sink.push(sym)
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
        self.sink.machine.depth()
    }

    /// `true` while the consumed input is still a viable prefix of some
    /// sentence (and no certification fault has been recorded).
    pub fn is_viable(&self) -> bool {
        self.sink.is_viable()
    }

    /// The first certification fault, if the incremental checker caught
    /// one mid-stream. `None` for honest drivers.
    pub fn fault(&self) -> Option<&CertifyError> {
        self.sink.fault.as_ref()
    }

    /// Whether the input so far would be accepted if the stream ended
    /// here — an end-of-input simulation over a scratch state stack,
    /// without logging anything or disturbing the parse.
    pub fn would_accept(&self) -> bool {
        self.would_accept_after([])
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
        would_accept_after_states(&self.sink.core.table, self.sink.machine.states(), &extra)
    }

    /// `(shifts, reduces)` the machine has performed so far, counting
    /// the step a fault was caught at: fault-injection tests locate the
    /// step that caught a corrupted table entry by it.
    #[doc(hidden)]
    pub fn step_counts(&self) -> (usize, usize) {
        self.sink.machine.step_counts()
    }

    /// Ends the stream: runs the remaining reductions. The resulting log
    /// is already certified — the per-step checks compose to the
    /// whole-tree contract.
    ///
    /// # Errors
    ///
    /// [`CertifyError`] under the same (driver-bug) conditions as
    /// [`CertifiedLrParser::parse`].
    pub fn finish(self) -> Result<LrOutcome, CertifyError> {
        self.sink.finish()
    }
}
