//! Push-mode streaming input for DFA-backed and LR-backed pipelines.
//!
//! A [`StreamParser`] consumes one symbol per [`StreamParser::push`].
//! Two backends support streaming:
//!
//! * **DFA mode** (regex and Dyck pipelines): each push is a single
//!   dense-table transition; the visited state sequence is remembered,
//!   so [`StreamParser::would_accept`] is one array probe and
//!   [`StreamParser::trace`] materializes the unique DFA trace
//!   *backwards over the recorded states* (the `parseD` construction of
//!   Fig. 12) without re-running the automaton.
//!   [`StreamParser::finish`] trades that incrementality for the full
//!   guarantee: it runs the pipeline's composed verified parser over
//!   the accumulated input end-to-end, because intrinsic verification
//!   is a property of the whole composed transformer.
//! * **LR mode** (CFG pipelines whose grammar compiled conflict-free):
//!   each push shifts one symbol after running the pending reductions —
//!   O(1) amortized over the input via the dense ACTION/GOTO tables —
//!   and the partial parse trees stay on the stream's stack, each
//!   reduction certified *as it is performed* (interned-id claim checks
//!   against the production's right-hand side).
//!   [`StreamParser::would_accept`] simulates the end-of-input
//!   reductions over a scratch overlay of the state stack;
//!   [`StreamParser::finish`] completes the remaining reductions and
//!   closes the lone-start obligation — no whole-tree re-validation, yet
//!   the same intrinsic guarantee as the one-shot path.
//!
//! * **Lexed-LR mode** (raw-text pipelines whose token grammar
//!   compiled conflict-free): characters go in through
//!   [`StreamParser::push_char`]; a push-mode [`LexStream`] buffers at
//!   most the one pending longest-match token boundary and feeds each
//!   resolved token straight into the token-level [`LrStream`]. Both
//!   layers certify incrementally: every resolved token is checked at
//!   its munch boundary (running span-tiling cursor + memoized
//!   derivative re-match, via a [`LexCertifier`]) and every LR
//!   reduction as it fires. [`StreamParser::finish`] flushes the lexer,
//!   completes the LR reductions, and closes the two end-of-input
//!   obligations (full tiling coverage; a lone start claim) — the
//!   finish cost is the pending suffix, not the stream.
//!
//! CFG pipelines that fell back to Earley have no incremental driver
//! and refuse to open a stream (lexed or not).

use std::sync::Arc;

use lambek_automata::nfa::StateId;
use lambek_core::alphabet::{GString, Symbol};
use lambek_core::grammar::parse_tree::ParseTree;
use lambek_core::theory::parser::ParseOutcome;
use lambek_core::transform::TransformError;
use lambek_lex::{LexCertifier, LexCertifyError, LexStream, LexStreamState, Span, Token};
use lambek_lr::{CertifyError, ClaimRef, LrOutcome, LrStream, LrStreamState};

use crate::pipeline::CompiledPipeline;
use crate::session::{self, Reader, SessionError, SessionState, Writer};
use crate::EngineError;

/// The backend-specific state of a stream.
///
/// The `LexedLr` variant is much bigger than `Dfa`, but there is one
/// `Mode` per open stream and it is matched on every push — boxing the
/// large variant would buy nothing and cost an indirection in the hot
/// loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Mode {
    /// Dense DFA stepping; `states[i]` is the state before symbol `i`.
    Dfa {
        states: Vec<StateId>,
        input: GString,
        /// Co-reachability of every state
        /// ([`lambek_automata::dfa::Dfa::live_states`]), computed once
        /// at open: the viability probe is one index.
        live: Vec<bool>,
    },
    /// Incremental certified LR parsing.
    Lr(LrStream),
    /// Incremental lexing feeding incremental LR parsing.
    LexedLr {
        /// The character side: maximal-munch with one buffered token
        /// boundary.
        lex: LexStream,
        /// The token side: shift + pending reductions per token.
        lr: LrStream,
        /// Every token emitted so far, skips included (kept for
        /// [`StreamParser::tokens`]; certification happens per token,
        /// not from this list).
        tokens: Vec<Token>,
        /// The incremental lexer certifier: each resolved token is
        /// checked at its munch boundary against the raw text.
        cert: LexCertifier,
        /// The first lexer-certification violation, recorded at the
        /// token where it happened and reported at `finish`.
        lex_fault: Option<LexCertifyError>,
    },
}

/// A mode-independent progress snapshot of a [`StreamParser`],
/// returned by [`StreamParser::progress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamProgress {
    /// Units of input consumed so far: symbols for DFA and LR streams,
    /// raw bytes for lexed streams.
    pub pushed: usize,
    /// Tokens whose boundaries have been resolved (lexed streams;
    /// zero elsewhere).
    pub tokens_emitted: usize,
    /// Partial parse trees currently open on the LR stack (LR-backed
    /// streams; zero for DFA streams).
    pub stack_depth: usize,
}

/// An incremental parser over a shared compiled pipeline.
#[derive(Debug, Clone)]
pub struct StreamParser {
    pipeline: Arc<CompiledPipeline>,
    mode: Mode,
}

impl StreamParser {
    /// Opens a stream over `pipeline`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoStreamingBackend`] if the pipeline has
    /// neither a dense DFA nor LR tables behind it (the
    /// lookahead-automaton expression pipeline; CFG pipelines on the
    /// Earley fallback).
    pub fn open(pipeline: Arc<CompiledPipeline>) -> Result<StreamParser, EngineError> {
        let mode = if let Some(backend) = pipeline.backend() {
            Mode::Dfa {
                states: vec![backend.dfa.init()],
                input: GString::new(),
                live: backend.dfa.live_states(),
            }
        } else if let Some(lr) = pipeline.cfg_backend().and_then(|b| b.lr()) {
            Mode::Lr(lr.stream())
        } else if let Some(lr) = pipeline.lexed_backend().and_then(|b| b.cfg_backend().lr()) {
            let lexer = pipeline.lexed_backend().expect("just matched").lexer();
            Mode::LexedLr {
                lex: lexer.automaton().stream(),
                lr: lr.stream(),
                tokens: Vec::new(),
                cert: lexer.certifier(),
                lex_fault: None,
            }
        } else {
            return Err(EngineError::NoStreamingBackend(pipeline.spec().label()));
        };
        Ok(StreamParser { pipeline, mode })
    }

    /// Consumes one symbol: a single dense-table DFA transition, or one
    /// LR shift plus any reductions it unlocks.
    ///
    /// # Panics
    ///
    /// Panics on lexed pipelines, whose streams consume *characters* —
    /// use [`StreamParser::push_char`] there (pushing a token-level
    /// symbol directly would desynchronize the certified lexer from
    /// the raw text it certifies at `finish`).
    pub fn push(&mut self, sym: Symbol) {
        match &mut self.mode {
            Mode::Dfa { states, input, .. } => {
                let backend = self.pipeline.backend().expect("checked at open");
                let s = *states.last().expect("stream has an initial state");
                states.push(backend.dfa.delta(s, sym));
                input.push(sym);
            }
            Mode::Lr(stream) => {
                stream.push(sym);
            }
            Mode::LexedLr { .. } => {
                panic!("lexed streams consume raw text: use push_char, not push")
            }
        }
    }

    /// Consumes one raw character (lexed pipelines only): the lexer
    /// steps its tagged DFA, and any token whose right boundary the
    /// character resolved is shifted into the LR parse. Returns `false`
    /// once the stream can no longer accept any continuation.
    ///
    /// # Panics
    ///
    /// Panics on non-lexed pipelines, whose streams consume [`Symbol`]s
    /// — use [`StreamParser::push`] there.
    pub fn push_char(&mut self, c: char) -> bool {
        let Mode::LexedLr {
            lex,
            lr,
            tokens,
            cert,
            lex_fault,
        } = &mut self.mode
        else {
            panic!("only lexed streams consume raw text: use push, not push_char");
        };
        match lex.push(c) {
            Err(_) => false,
            Ok(resolved) => {
                let mut ok = true;
                for t in resolved {
                    // Certify the lexeme at its munch boundary: the
                    // token's span bytes are already part of the pushed
                    // text, so the running tiling cursor and the
                    // derivative re-match both resolve right here.
                    if lex_fault.is_none() {
                        if let Err(e) = cert.check(lex.raw_input(), &t) {
                            *lex_fault = Some(e);
                        }
                    }
                    if let Some(sym) = t.sym {
                        ok &= lr.push(sym);
                    }
                    tokens.push(t);
                }
                ok && lr.is_viable() && lex_fault.is_none()
            }
        }
    }

    /// Consumes a whole string of raw characters (lexed pipelines
    /// only). Returns the final viability bit, as
    /// [`StreamParser::push_char`] does.
    pub fn push_chars(&mut self, s: &str) -> bool {
        // Seed from the current viability so an empty chunk on a dead
        // stream honestly reports false.
        let mut ok = self.is_viable();
        for c in s.chars() {
            ok = self.push_char(c);
        }
        ok
    }

    /// Consumes a whole string.
    pub fn push_all(&mut self, w: &GString) {
        for sym in w.iter() {
            self.push(sym);
        }
    }

    /// Number of symbols consumed so far.
    pub fn len(&self) -> usize {
        self.input().len()
    }

    /// `true` if nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.input().is_empty()
    }

    /// The DFA state after the symbols consumed so far — `None` for LR
    /// streams, whose configuration is a state *stack*.
    pub fn state(&self) -> Option<StateId> {
        match &self.mode {
            Mode::Dfa { states, .. } => Some(*states.last().expect("stream has an initial state")),
            Mode::Lr(_) | Mode::LexedLr { .. } => None,
        }
    }

    /// Whether the input so far would be accepted if the stream ended
    /// here — one array probe in DFA mode; an end-of-input reduction
    /// simulation over a scratch state stack in LR mode. Neither builds
    /// trees or disturbs the stream.
    pub fn would_accept(&self) -> bool {
        match &self.mode {
            Mode::Dfa { states, .. } => {
                let s = *states.last().expect("stream has an initial state");
                self.pipeline
                    .backend()
                    .expect("checked at open")
                    .dfa
                    .is_accepting(s)
            }
            Mode::Lr(stream) => stream.would_accept(),
            // Flush the pending token boundary (a copy of the small
            // munch state, not of the accumulated input) and simulate
            // the flushed symbols plus the end-of-input reductions over
            // a scratch overlay of the LR state stack: the probe never
            // disturbs either live stream, builds no trees, and — since
            // nothing clones the accumulated input or the partial
            // derivation stack — costs O(pending + stack depth), not
            // O(input).
            Mode::LexedLr {
                lex, lr, lex_fault, ..
            } => {
                lex_fault.is_none()
                    && match lex.pending_flush() {
                        Err(_) => false,
                        Ok(flushed) => {
                            lr.would_accept_after(flushed.into_iter().filter_map(|t| t.sym))
                        }
                    }
            }
        }
    }

    /// [`StreamParser::would_accept`] plus the number of LR table
    /// actions the probe simulated — the differential suites use the
    /// count to pin the probe's cost to the stack depth. DFA probes
    /// count as one action.
    #[doc(hidden)]
    pub fn would_accept_counted(&self) -> (bool, usize) {
        match &self.mode {
            Mode::Dfa { .. } => (self.would_accept(), 1),
            Mode::Lr(stream) => stream.would_accept_after_counted(std::iter::empty()),
            Mode::LexedLr {
                lex, lr, lex_fault, ..
            } => {
                if lex_fault.is_some() {
                    return (false, 0);
                }
                match lex.pending_flush() {
                    Err(_) => (false, 0),
                    Ok(flushed) => {
                        lr.would_accept_after_counted(flushed.into_iter().filter_map(|t| t.sym))
                    }
                }
            }
        }
    }

    /// `true` while the consumed input can still extend to an accepted
    /// sentence. DFA mode answers from the precomputed co-reachability
    /// of the current state (the automata are total, so a dead input
    /// sits in a non-live sink rather than erroring); LR mode flips to
    /// `false` at the first symbol the table has no action for.
    pub fn is_viable(&self) -> bool {
        match &self.mode {
            Mode::Dfa { states, live, .. } => {
                live[*states.last().expect("stream has an initial state")]
            }
            Mode::Lr(stream) => stream.is_viable(),
            Mode::LexedLr {
                lex, lr, lex_fault, ..
            } => lex.is_alive() && lr.is_viable() && lex_fault.is_none(),
        }
    }

    /// The first lexer-certification violation the incremental checker
    /// caught (lexed streams only; always `None` for a correctly
    /// compiled lexer).
    pub fn lex_fault(&self) -> Option<&LexCertifyError> {
        match &self.mode {
            Mode::LexedLr { lex_fault, .. } => lex_fault.as_ref(),
            _ => None,
        }
    }

    /// The first LR-certification violation the incremental checker
    /// caught (LR-backed streams only; always `None` for a correctly
    /// compiled parser).
    pub fn lr_fault(&self) -> Option<&CertifyError> {
        match &self.mode {
            Mode::Lr(stream) => stream.fault(),
            Mode::LexedLr { lr, .. } => lr.fault(),
            Mode::Dfa { .. } => None,
        }
    }

    /// Injects a one-token lexer fault (test-only; lexed streams only).
    #[doc(hidden)]
    pub fn sabotage_lex(&mut self, s: lambek_lex::SabotageLex) {
        match &mut self.mode {
            Mode::LexedLr { lex, .. } => lex.sabotage(s),
            _ => panic!("only lexed streams have a lexer to sabotage"),
        }
    }

    /// Injects a one-step LR fault (test-only; LR-backed streams only).
    #[doc(hidden)]
    pub fn sabotage_lr(&mut self, s: lambek_lr::SabotageLr) {
        match &mut self.mode {
            Mode::Lr(stream) => stream.sabotage(s),
            Mode::LexedLr { lr, .. } => lr.sabotage(s),
            Mode::Dfa { .. } => panic!("DFA streams have no LR stack to sabotage"),
        }
    }

    /// The input consumed so far, at the *parser's* level: for lexed
    /// streams this is the token-level string (resolved tokens only —
    /// the buffered boundary is not yet part of it); the raw text lives
    /// in [`StreamParser::raw_input`].
    pub fn input(&self) -> &GString {
        match &self.mode {
            Mode::Dfa { input, .. } => input,
            Mode::Lr(stream) => stream.input(),
            Mode::LexedLr { lr, .. } => lr.input(),
        }
    }

    /// The raw text pushed so far (lexed streams only).
    pub fn raw_input(&self) -> Option<&str> {
        match &self.mode {
            Mode::LexedLr { lex, .. } => Some(lex.raw_input()),
            _ => None,
        }
    }

    /// The tokens whose boundaries have been resolved so far, skips
    /// included (lexed streams only).
    pub fn tokens(&self) -> Option<&[Token]> {
        match &self.mode {
            Mode::LexedLr { tokens, .. } => Some(tokens),
            _ => None,
        }
    }

    /// A cheap, always-available progress snapshot, regardless of
    /// backend mode. Unlike [`StreamParser::trace`] (DFA streams only)
    /// this works for all three modes and costs a few field reads.
    ///
    /// What `pushed` counts is mode-dependent: symbols for DFA and LR
    /// streams, raw *bytes* for lexed streams (the natural unit of
    /// their input). `tokens_emitted` and `stack_depth` are zero where
    /// the mode has no lexer or no LR stack.
    pub fn progress(&self) -> StreamProgress {
        match &self.mode {
            Mode::Dfa { input, .. } => StreamProgress {
                pushed: input.len(),
                tokens_emitted: 0,
                stack_depth: 0,
            },
            Mode::Lr(stream) => StreamProgress {
                pushed: stream.input().len(),
                tokens_emitted: 0,
                stack_depth: stream.pending(),
            },
            Mode::LexedLr {
                lex, lr, tokens, ..
            } => StreamProgress {
                pushed: lex.raw_input().len(),
                tokens_emitted: tokens.len(),
                stack_depth: lr.pending(),
            },
        }
    }

    /// The accept bit and the raw DFA trace of the input so far, built
    /// backwards from the recorded state sequence (Fig. 12's `parseD`,
    /// without re-running the automaton).
    ///
    /// Returns `None` for **both** LR streams and lexed streams — their
    /// incremental artifact is the partial derivation stack, not a
    /// trace, so there is nothing trace-shaped to hand back. Use
    /// [`StreamParser::progress`] for a mode-independent view of how
    /// far a stream has advanced.
    pub fn trace(&self) -> Option<(bool, ParseTree)> {
        let Mode::Dfa { states, input, .. } = &self.mode else {
            return None; // LR and lexed streams carry stacks, not traces
        };
        let backend = self.pipeline.backend().expect("checked at open");
        let b = backend
            .dfa
            .is_accepting(*states.last().expect("stream has an initial state"));
        let mut tree = ParseTree::roll(ParseTree::inj(0, ParseTree::Unit));
        for (i, sym) in input.iter().enumerate().rev() {
            let s = states[i];
            let idx = backend.tg.cons_index(&backend.dfa, s, b, sym);
            tree = ParseTree::roll(ParseTree::inj(
                idx,
                ParseTree::pair(ParseTree::Char(sym), tree),
            ));
        }
        Some((b, tree))
    }

    /// Parks the stream: serializes its complete state to a versioned,
    /// checksummed [`SessionState`] that [`crate::Engine::resume`] can later
    /// turn back into an equivalent live stream — same accepts, same
    /// rejects, same certified trees, in this process or another.
    ///
    /// What goes over the wire is mode-dependent. DFA sessions carry
    /// only the input (the state sequence is a deterministic replay).
    /// LR sessions carry the state stack, the partial derivation stack
    /// with its certification claims (as process-independent
    /// [`ClaimRef`]s), and the input. Lexed sessions add the raw text,
    /// the resolved-boundary offset, and every emitted token — the
    /// in-flight munch state is *derived*, not shipped. In every case
    /// resume re-validates the lot against the compiled pipeline; the
    /// blob is never trusted.
    ///
    /// # Errors
    ///
    /// [`SessionError::Unsupported`] if the stream has recorded a
    /// certification fault — a faulted configuration is evidence of a
    /// driver bug, not a parse state worth parking.
    pub fn snapshot(&self) -> Result<SessionState, SessionError> {
        let fingerprint = self.pipeline.spec().session_fingerprint();
        let mut w = Writer::new();
        let tag = match &self.mode {
            Mode::Dfa { input, .. } => {
                session::write_gstring(&mut w, input);
                0
            }
            Mode::Lr(stream) => {
                let st = stream.export_state().ok_or_else(|| {
                    SessionError::Unsupported(
                        "faulted or full-validation LR streams cannot be parked".into(),
                    )
                })?;
                write_lr_state(&mut w, &st);
                1
            }
            Mode::LexedLr {
                lex,
                lr,
                tokens,
                lex_fault,
                ..
            } => {
                if lex_fault.is_some() {
                    return Err(SessionError::Unsupported(
                        "streams with a recorded lexer-certification fault cannot be parked".into(),
                    ));
                }
                let lr_st = lr.export_state().ok_or_else(|| {
                    SessionError::Unsupported(
                        "faulted or full-validation LR streams cannot be parked".into(),
                    )
                })?;
                write_lex_state(&mut w, &lex.export_state());
                write_lr_state(&mut w, &lr_st);
                w.usize(tokens.len());
                for t in tokens {
                    write_token(&mut w, t);
                }
                2
            }
        };
        Ok(session::seal(fingerprint, tag, w))
    }

    /// Un-parks a session over `pipeline` — the inverse of
    /// [`StreamParser::snapshot`], usually reached through
    /// [`Engine::resume`](crate::Engine::resume).
    ///
    /// The blob is treated as untrusted input throughout: the checksum
    /// and version gate the framing, the spec fingerprint gates *which
    /// pipeline* the state may re-enter, and the decoded state is then
    /// re-validated piece by piece — DFA input replayed through the
    /// automaton, LR stacks checked transition-by-transition against
    /// the tables with every parked tree re-certified against its claim
    /// and yield window, lexer state re-derived by replaying the
    /// unresolved suffix, and every token re-certified by a fresh
    /// incremental certifier (span tiling + derivative re-match). A
    /// blob that lies is rejected with a structured error; it cannot
    /// produce a stream whose future certifications are wrong.
    ///
    /// # Errors
    ///
    /// [`SessionError::Corrupt`] / [`SessionError::Version`] /
    /// [`SessionError::SpecMismatch`] for framing-level rejections,
    /// [`SessionError::Invalid`] when the decoded state fails
    /// re-validation against this pipeline.
    pub fn resume(
        pipeline: Arc<CompiledPipeline>,
        state: &SessionState,
    ) -> Result<StreamParser, SessionError> {
        let fingerprint = pipeline.spec().session_fingerprint();
        let (tag, mut r) = session::open(state, fingerprint)?;
        let invalid = SessionError::Invalid;
        let mode = match tag {
            0 => {
                let Some(backend) = pipeline.backend() else {
                    return Err(invalid(
                        "blob is a DFA session but the pipeline has no DFA backend".into(),
                    ));
                };
                let input = session::read_gstring(&mut r)?;
                r.finish()?;
                let n_syms = pipeline.alphabet().names().len();
                if let Some(sym) = input.iter().find(|s| s.index() >= n_syms) {
                    return Err(invalid(format!(
                        "symbol index {} is outside the {n_syms}-symbol alphabet",
                        sym.index()
                    )));
                }
                // The state sequence is not on the wire: replaying the
                // input through the actual automaton *is* the
                // validation (and the only self-consistent outcome).
                let mut states = Vec::with_capacity(input.len() + 1);
                states.push(backend.dfa.init());
                for sym in input.iter() {
                    let s = *states.last().expect("seeded with the initial state");
                    states.push(backend.dfa.delta(s, sym));
                }
                Mode::Dfa {
                    states,
                    input,
                    live: backend.dfa.live_states(),
                }
            }
            1 => {
                let Some(lr) = pipeline.cfg_backend().and_then(|b| b.lr()) else {
                    return Err(invalid(
                        "blob is an LR session but the pipeline has no LR backend".into(),
                    ));
                };
                let st = read_lr_state(&mut r)?;
                r.finish()?;
                let n_syms = pipeline.alphabet().names().len();
                if let Some(sym) = st.input.iter().find(|s| s.index() >= n_syms) {
                    return Err(invalid(format!(
                        "symbol index {} is outside the {n_syms}-symbol alphabet",
                        sym.index()
                    )));
                }
                Mode::Lr(lr.resume_stream(st).map_err(|e| invalid(e.to_string()))?)
            }
            2 => {
                let Some(backend) = pipeline.lexed_backend() else {
                    return Err(invalid(
                        "blob is a lexed session but the pipeline has no lexer".into(),
                    ));
                };
                let Some(lr_parser) = backend.cfg_backend().lr() else {
                    return Err(invalid(
                        "blob is a lexed-LR session but the token grammar is not LR".into(),
                    ));
                };
                let lex_st = read_lex_state(&mut r)?;
                let lr_st = read_lr_state(&mut r)?;
                let n = r.len()?;
                let mut tokens = Vec::with_capacity(n);
                for _ in 0..n {
                    tokens.push(read_token(&mut r)?);
                }
                r.finish()?;
                if tokens.len() != lex_st.emitted {
                    return Err(invalid(format!(
                        "blob carries {} tokens but the lexer state claims {} were emitted",
                        tokens.len(),
                        lex_st.emitted
                    )));
                }
                // Cross-layer consistency: the LR stream must have been
                // fed exactly the non-skip tokens' symbols, in order.
                let yielded: GString = tokens.iter().filter_map(|t| t.sym).collect();
                if yielded != lr_st.input {
                    return Err(invalid(
                        "the tokens' symbol yield does not match the LR input".into(),
                    ));
                }
                // Re-certify every parked token from scratch: span
                // tiling from byte 0, text-vs-input agreement, rule
                // bounds, symbol assignment, derivative re-match. This
                // also rebuilds the incremental certifier the resumed
                // stream carries forward.
                let mut cert = backend.lexer().certifier();
                for t in &tokens {
                    cert.check(&lex_st.input, t)
                        .map_err(|e| invalid(format!("token re-certification failed: {e}")))?;
                }
                match lex_st.dead {
                    None if cert.cursor() != lex_st.resume_from => {
                        return Err(invalid(format!(
                            "tokens tile {} bytes but the resolved boundary is recorded at {}",
                            cert.cursor(),
                            lex_st.resume_from
                        )));
                    }
                    // A dead stream may have delivered fewer tokens
                    // than it cut (a failed drain discards the cut),
                    // but never any reaching past the error offset.
                    Some((at, _)) if cert.cursor() > at => {
                        return Err(invalid(format!(
                            "tokens tile {} bytes, past the recorded lexical error at byte {at}",
                            cert.cursor()
                        )));
                    }
                    _ => {}
                }
                let lex = backend
                    .lexer()
                    .automaton()
                    .resume_stream(lex_st)
                    .map_err(|e| invalid(e.to_string()))?;
                let lr = lr_parser
                    .resume_stream(lr_st)
                    .map_err(|e| invalid(e.to_string()))?;
                Mode::LexedLr {
                    lex,
                    lr,
                    tokens,
                    cert,
                    lex_fault: None,
                }
            }
            t => {
                return Err(SessionError::Corrupt(format!(
                    "unknown session mode tag {t}"
                )))
            }
        };
        Ok(StreamParser { pipeline, mode })
    }

    /// Ends the stream, returning the intrinsically checked outcome.
    ///
    /// DFA mode re-runs the pipeline's composed verified parser over the
    /// accumulated input. LR mode completes the pending reductions —
    /// each already certified as it was performed — and closes the
    /// lone-start obligation: no whole-tree re-validation, same
    /// guarantee. Lexed mode flushes the buffered token boundary
    /// (certifying the flushed lexemes at their munch boundaries, like
    /// every earlier token), completes the LR reductions, and closes
    /// the two end-of-input obligations: the certified lexemes tile the
    /// whole raw text, and the LR stack holds exactly the start symbol.
    /// The cost of `finish` is the pending suffix, not the stream.
    ///
    /// # Errors
    ///
    /// Propagates transformer errors exactly as
    /// [`CompiledPipeline::parse`] does; a lexer certification failure
    /// surfaces as [`TransformError::Custom`].
    pub fn finish(self) -> Result<ParseOutcome, TransformError> {
        match self.mode {
            Mode::Dfa { input, .. } => self.pipeline.parse(&input),
            Mode::Lr(stream) => {
                let input = stream.input().clone();
                match stream.finish().map_err(|e| TransformError::OutputShape {
                    transformer: "certified-lr-stream".to_owned(),
                    cause: e.cause,
                })? {
                    LrOutcome::Accept(log) => Ok(ParseOutcome::Accept(log.to_parse_tree())),
                    // Same rejection convention as the one-shot CFG path:
                    // the ⊤-parse of the input.
                    LrOutcome::Reject(_) => Ok(ParseOutcome::Reject(ParseTree::Top(input))),
                }
            }
            Mode::LexedLr {
                lex,
                mut lr,
                mut cert,
                mut lex_fault,
                ..
            } => {
                // Layer 1 ran per token as the characters were pushed: a
                // violation recorded at any munch boundary surfaces now.
                if let Some(e) = lex_fault {
                    return Err(TransformError::Custom(format!(
                        "certified-lexer contract violation: {e}"
                    )));
                }
                let raw = lex.raw_input().to_owned();
                let flushed = match lex.finish() {
                    Ok(f) => f,
                    Err(_) => {
                        // An unlexable tail (or an earlier lexical
                        // error): the stream rejects with the ⊤-parse
                        // of the tokens parsed so far.
                        return Ok(ParseOutcome::Reject(ParseTree::Top(lr.input().clone())));
                    }
                };
                for t in flushed {
                    if lex_fault.is_none() {
                        if let Err(e) = cert.check(&raw, &t) {
                            lex_fault = Some(e);
                        }
                    }
                    if let Some(sym) = t.sym {
                        lr.push(sym);
                    }
                }
                // Close the tiling invariant: the certified lexemes
                // must cover every pushed byte.
                if lex_fault.is_none() {
                    if let Err(e) = cert.finish(&raw) {
                        lex_fault = Some(e);
                    }
                }
                if let Some(e) = lex_fault {
                    return Err(TransformError::Custom(format!(
                        "certified-lexer contract violation: {e}"
                    )));
                }
                // Layer 2: the LR reductions were certified as they
                // were performed; finish only closes the lone-start
                // obligation (no whole-tree re-validation).
                let input = lr.input().clone();
                match lr.finish().map_err(|e| TransformError::OutputShape {
                    transformer: "certified-lexed-lr-stream".to_owned(),
                    cause: e.cause,
                })? {
                    LrOutcome::Accept(log) => Ok(ParseOutcome::Accept(log.to_parse_tree())),
                    LrOutcome::Reject(_) => Ok(ParseOutcome::Reject(ParseTree::Top(input))),
                }
            }
        }
    }
}

/// Encodes extracted lexer-stream state (see [`LexStreamState`]).
fn write_lex_state(w: &mut Writer, st: &LexStreamState) {
    w.str(&st.input);
    w.usize(st.resume_from);
    w.usize(st.emitted);
    match st.dead {
        None => w.u8(0),
        Some((at, c)) => {
            w.u8(1);
            w.usize(at);
            w.u32(c as u32);
        }
    }
}

fn read_lex_state(r: &mut Reader<'_>) -> Result<LexStreamState, SessionError> {
    let input = r.string()?;
    let resume_from = r.u64()? as usize;
    let emitted = r.u64()? as usize;
    let dead = match r.u8()? {
        0 => None,
        1 => {
            let at = r.u64()? as usize;
            let c = char::from_u32(r.u32()?).ok_or_else(|| {
                SessionError::Corrupt("lexical-error character is not a scalar value".into())
            })?;
            Some((at, c))
        }
        t => return Err(SessionError::Corrupt(format!("bad option tag {t}"))),
    };
    Ok(LexStreamState {
        input,
        resume_from,
        emitted,
        dead,
    })
}

/// Encodes extracted LR-stream state (see [`LrStreamState`]).
fn write_lr_state(w: &mut Writer, st: &LrStreamState) {
    w.usize(st.states.len());
    for &s in &st.states {
        w.u32(s);
    }
    w.usize(st.trees.len());
    for t in &st.trees {
        session::write_tree(w, t);
    }
    w.usize(st.claims.len());
    for &c in &st.claims {
        match c {
            ClaimRef::Term(t) => {
                w.u8(0);
                w.usize(t);
            }
            ClaimRef::Var(n) => {
                w.u8(1);
                w.usize(n);
            }
        }
    }
    w.usize(st.shifts);
    w.usize(st.reduces);
    session::write_gstring(w, &st.input);
    match st.dead {
        None => w.u8(0),
        Some((at, state)) => {
            w.u8(1);
            w.usize(at);
            w.usize(state);
        }
    }
}

fn read_lr_state(r: &mut Reader<'_>) -> Result<LrStreamState, SessionError> {
    let n = r.len()?;
    let mut states = Vec::with_capacity(n);
    for _ in 0..n {
        states.push(r.u32()?);
    }
    let n = r.len()?;
    let mut trees = Vec::with_capacity(n);
    for _ in 0..n {
        trees.push(session::read_tree(r)?);
    }
    let n = r.len()?;
    let mut claims = Vec::with_capacity(n);
    for _ in 0..n {
        claims.push(match r.u8()? {
            0 => ClaimRef::Term(r.u64()? as usize),
            1 => ClaimRef::Var(r.u64()? as usize),
            t => return Err(SessionError::Corrupt(format!("bad claim tag {t}"))),
        });
    }
    let shifts = r.u64()? as usize;
    let reduces = r.u64()? as usize;
    let input = session::read_gstring(r)?;
    let dead = match r.u8()? {
        0 => None,
        1 => Some((r.u64()? as usize, r.u64()? as usize)),
        t => return Err(SessionError::Corrupt(format!("bad option tag {t}"))),
    };
    Ok(LrStreamState {
        states,
        trees,
        claims,
        shifts,
        reduces,
        input,
        dead,
    })
}

fn write_token(w: &mut Writer, t: &Token) {
    w.usize(t.rule);
    w.str(&t.text);
    w.usize(t.span.start);
    w.usize(t.span.end);
    match t.sym {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            w.u16(s.index() as u16);
        }
    }
}

fn read_token(r: &mut Reader<'_>) -> Result<Token, SessionError> {
    let rule = r.u64()? as usize;
    let text = r.string()?;
    let span = Span {
        start: r.u64()? as usize,
        end: r.u64()? as usize,
    };
    let sym = match r.u8()? {
        0 => None,
        1 => Some(lambek_core::alphabet::Symbol::from_index(r.u16()? as usize)),
        t => return Err(SessionError::Corrupt(format!("bad option tag {t}"))),
    };
    Ok(Token {
        rule,
        text,
        span,
        sym,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, PipelineSpec};
    use lambek_core::alphabet::Alphabet;
    use lambek_core::grammar::parse_tree::validate;

    #[test]
    fn streaming_matches_one_shot_parsing() {
        let engine = Engine::new();
        let spec = PipelineSpec::regex(Alphabet::abc(), "(a*b)|c");
        let sigma = Alphabet::abc();
        for s in ["", "b", "aab", "c", "ca", "abab"] {
            let w = sigma.parse_str(s).unwrap();
            let mut stream = engine.stream(&spec).unwrap();
            stream.push_all(&w);
            assert_eq!(stream.len(), w.len());
            let pipeline = engine.get_or_compile(&spec).unwrap();
            assert_eq!(stream.would_accept(), pipeline.accepts(&w), "{s}");
            let outcome = stream.finish().unwrap();
            assert_eq!(outcome.is_accept(), pipeline.accepts(&w), "{s}");
        }
    }

    #[test]
    fn intermediate_accept_bits_track_prefixes() {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck(16);
        let sigma = Alphabet::parens();
        let w = sigma.parse_str("(())()").unwrap();
        let pipeline = engine.get_or_compile(&spec).unwrap();
        let mut stream = engine.stream(&spec).unwrap();
        assert!(stream.is_empty());
        for (i, sym) in w.iter().enumerate() {
            stream.push(sym);
            let prefix = w.substring(0, i + 1);
            assert_eq!(stream.would_accept(), pipeline.accepts(&prefix), "{i}");
        }
    }

    #[test]
    fn trace_is_a_valid_trace_of_the_pushed_input() {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck(8);
        let sigma = Alphabet::parens();
        let w = sigma.parse_str("(()())").unwrap();
        let mut stream = engine.stream(&spec).unwrap();
        stream.push_all(&w);
        assert!(stream.state().is_some(), "DFA streams expose their state");
        let (b, trace) = stream.trace().expect("DFA streams have traces");
        assert!(b);
        let pipeline = engine.get_or_compile(&spec).unwrap();
        let backend = pipeline.backend().unwrap();
        let g = backend.tg.trace(backend.dfa.init(), b);
        validate(&trace, &g, &w).unwrap();
    }

    #[test]
    fn expr_pipeline_has_no_stream() {
        let engine = Engine::new();
        assert!(matches!(
            engine.stream(&PipelineSpec::expr(4)),
            Err(EngineError::NoStreamingBackend(_))
        ));
    }

    #[test]
    fn dfa_stream_viability_tracks_co_reachability() {
        // ')' from the start of a Dyck automaton enters a dead sink: no
        // continuation can ever accept, and is_viable must say so.
        let engine = Engine::new();
        let spec = PipelineSpec::dyck(6);
        let sigma = Alphabet::parens();
        let close = sigma.symbol(")").unwrap();
        let open = sigma.symbol("(").unwrap();
        let mut stream = engine.stream(&spec).unwrap();
        assert!(stream.is_viable(), "ε extends to ()");
        stream.push(open);
        assert!(stream.is_viable(), "( extends to ()");
        stream.push(close);
        stream.push(close);
        assert!(!stream.is_viable(), "()) is dead in every continuation");
        stream.push(open);
        assert!(!stream.is_viable(), "sinks are absorbing");
        assert!(!stream.would_accept());
    }

    #[test]
    fn lr_stream_matches_one_shot_and_certifies() {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck_cfg();
        let sigma = Alphabet::parens();
        let pipeline = engine.get_or_compile(&spec).unwrap();
        for s in ["", "()", "(())()", ")(", "(()", "()()()"] {
            let w = sigma.parse_str(s).unwrap();
            let mut stream = engine.stream(&spec).unwrap();
            stream.push_all(&w);
            assert_eq!(stream.would_accept(), pipeline.accepts(&w), "{s}");
            assert!(stream.trace().is_none(), "LR streams have no DFA trace");
            assert!(stream.state().is_none());
            let outcome = stream.finish().unwrap();
            assert_eq!(outcome.is_accept(), pipeline.accepts(&w), "{s}");
            if let Some(tree) = outcome.accepted() {
                validate(tree, pipeline.grammar(), &w).unwrap();
            }
        }
    }

    #[test]
    fn lr_stream_prefix_probes_track_acceptance() {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck_cfg();
        let sigma = Alphabet::parens();
        let pipeline = engine.get_or_compile(&spec).unwrap();
        let w = sigma.parse_str("(())()").unwrap();
        let mut stream = engine.stream(&spec).unwrap();
        assert!(stream.would_accept(), "ε is balanced");
        for (i, sym) in w.iter().enumerate() {
            stream.push(sym);
            let prefix = w.substring(0, i + 1);
            assert_eq!(stream.would_accept(), pipeline.accepts(&prefix), "{i}");
            assert!(stream.is_viable(), "every prefix of (())() is viable");
        }
    }

    #[test]
    fn expr_cfg_pipeline_streams_via_lr() {
        // The lookahead-automaton expr pipeline cannot stream; the
        // LR-backed CFG form of the same grammar can.
        let engine = Engine::new();
        let spec = PipelineSpec::expr_cfg();
        let t = lambek_automata::lookahead::ArithTokens::new();
        let mut stream = engine.stream(&spec).unwrap();
        for sym in [t.num, t.add, t.lp, t.num, t.rp] {
            stream.push(sym);
        }
        assert!(stream.would_accept(), "NUM + ( NUM ) is an expression");
        let outcome = stream.finish().unwrap();
        assert!(outcome.is_accept());
    }

    #[test]
    fn lexed_stream_agrees_with_one_shot_pointwise() {
        let engine = Engine::new();
        let spec = PipelineSpec::arith_lexed();
        let pipeline = engine.get_or_compile(&spec).unwrap();
        for input in [
            "12 + 3",
            "12+(345+6)",
            "7",
            "",
            "1 +",
            "((2)",
            "1 ++ 2",
            "12x",
        ] {
            let mut stream = engine.stream(&spec).unwrap();
            stream.push_chars(input);
            let one_shot = pipeline.parse_str(input).unwrap();
            assert_eq!(
                stream.would_accept(),
                one_shot.is_accept(),
                "{input:?} (would_accept)"
            );
            let outcome = stream.finish().unwrap();
            assert_eq!(
                outcome.is_accept(),
                one_shot.is_accept(),
                "{input:?} (finish)"
            );
            if let (Some(stream_tree), Some(batch_tree)) = (outcome.accepted(), one_shot.accepted())
            {
                assert_eq!(stream_tree, &batch_tree.to_parse_tree(), "{input:?}");
                validate(stream_tree, pipeline.grammar(), &stream_tree.flatten()).unwrap();
            }
        }
    }

    #[test]
    fn lexed_stream_probes_track_prefixes() {
        let engine = Engine::new();
        let spec = PipelineSpec::arith_lexed();
        let pipeline = engine.get_or_compile(&spec).unwrap();
        let input = "12+(3+45)";
        let mut stream = engine.stream(&spec).unwrap();
        assert!(stream.state().is_none() && stream.trace().is_none());
        for (i, c) in input.char_indices() {
            stream.push_char(c);
            let prefix = &input[..i + c.len_utf8()];
            assert_eq!(
                stream.would_accept(),
                pipeline.parse_str(prefix).unwrap().is_accept(),
                "{prefix:?}"
            );
            assert!(stream.is_viable(), "every prefix of {input:?} is viable");
        }
        assert_eq!(stream.raw_input(), Some(input));
        // Of the 7 tokens, the final ')' is still the buffered
        // longest-match boundary — only finish() flushes it.
        assert_eq!(stream.tokens().unwrap().len(), 6, "one token pending");
        let outcome = stream.finish().unwrap();
        assert!(outcome.is_accept());
    }

    #[test]
    fn lexed_stream_goes_dead_on_lex_errors() {
        let engine = Engine::new();
        let spec = PipelineSpec::arith_lexed();
        let mut stream = engine.stream(&spec).unwrap();
        assert!(stream.push_char('1'));
        assert!(!stream.push_char('x'), "x is not lexable");
        assert!(!stream.is_viable());
        assert!(!stream.would_accept());
        assert!(!stream.push_char('2'));
        assert!(!stream.finish().unwrap().is_accept());
    }

    #[test]
    fn push_chars_empty_chunk_reports_dead_streams() {
        let engine = Engine::new();
        let mut stream = engine.stream(&PipelineSpec::arith_lexed()).unwrap();
        assert!(stream.push_chars(""), "fresh stream is viable");
        assert!(!stream.push_char('x'));
        assert!(!stream.push_chars(""), "a dead stream must not report ok");
    }

    #[test]
    #[should_panic(expected = "use push_char")]
    fn lexed_streams_refuse_symbol_pushes() {
        let engine = Engine::new();
        let mut stream = engine.stream(&PipelineSpec::arith_lexed()).unwrap();
        stream.push(Symbol::from_index(0));
    }

    #[test]
    #[should_panic(expected = "use push")]
    fn symbol_streams_refuse_char_pushes() {
        let engine = Engine::new();
        let mut stream = engine.stream(&PipelineSpec::dyck_cfg()).unwrap();
        stream.push_char('(');
    }

    #[test]
    fn earley_fallback_has_no_stream() {
        use lambek_cfg::grammar::{Cfg, GSym, Production};
        let s = Alphabet::abc();
        let a = s.symbol("a").unwrap();
        let ambiguous = Cfg::new(
            s,
            vec!["S".to_owned()],
            vec![vec![
                Production {
                    rhs: vec![GSym::N(0), GSym::N(0)],
                },
                Production {
                    rhs: vec![GSym::T(a)],
                },
            ]],
            0,
        );
        let engine = Engine::new();
        assert!(matches!(
            engine.stream(&PipelineSpec::cfg("amb", ambiguous)),
            Err(EngineError::NoStreamingBackend(_))
        ));
    }
}
