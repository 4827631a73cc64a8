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
//! * **LR mode** (CFG pipelines, all LALR(1) by construction):
//!   each push shifts one symbol after running the pending reductions —
//!   O(1) amortized over the input via the dense ACTION/GOTO tables —
//!   and the partial parse trees stay on the stream's stack, each
//!   reduction certified *as it is performed* (claim-id checks
//!   against the production's right-hand side).
//!   [`StreamParser::would_accept`] simulates the end-of-input
//!   reductions over a scratch overlay of the state stack;
//!   [`StreamParser::finish`] completes the remaining reductions and
//!   closes the lone-start obligation — no whole-tree re-validation, yet
//!   the same intrinsic guarantee as the one-shot path.
//!
//! * **Lexed-LR mode** (raw-text pipelines): characters go in through
//!   [`StreamParser::push_chars`] (or one at a time through
//!   [`StreamParser::push_char`]); a push-mode [`LexStream`] resumes its
//!   open maximal-munch scan over each chunk and feeds each resolved
//!   token straight into the token-level [`LrStream`]. Both layers
//!   certify incrementally: every resolved token is checked at its
//!   munch boundary (running span-tiling cursor + one walk of its
//!   rule's eager derivative table, via a [`LexCertifier`]) and every
//!   LR reduction as it fires. [`StreamParser::finish`] flushes the lexer,
//!   completes the LR reductions, and closes the two end-of-input
//!   obligations (full tiling coverage; a lone start claim) — the
//!   finish cost is the pending suffix, not the stream.

use std::sync::Arc;

use lambek_automata::nfa::StateId;
use lambek_core::alphabet::{GString, Symbol};
use lambek_core::grammar::parse_tree::ParseTree;
use lambek_core::theory::parser::ParseOutcome;
use lambek_core::transform::TransformError;
use lambek_lex::{LexCertifier, LexCertifyError, LexStream, Token};
use lambek_lr::{CertifyError, LrOutcome, LrStream};

use crate::pipeline::CompiledPipeline;
use crate::session::{self, ParkedInput, SessionError, SessionState};
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
        /// The character side: maximal munch with one open scan.
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
    /// lookahead-automaton expression pipeline).
    pub fn open(pipeline: Arc<CompiledPipeline>) -> Result<StreamParser, EngineError> {
        let mode = if let Some(backend) = pipeline.backend() {
            Mode::Dfa {
                states: vec![backend.dfa.init()],
                input: GString::new(),
                live: backend.dfa.live_states(),
            }
        } else if let Some(b) = pipeline.cfg_backend() {
            Mode::Lr(b.lr.stream())
        } else if let Some(b) = pipeline.lexed_backend() {
            let lexer = b.lexer();
            Mode::LexedLr {
                lex: lexer.automaton().stream(),
                lr: b.cfg_backend().lr.stream(),
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

    /// Consumes one raw character (lexed pipelines only):
    /// [`StreamParser::push_chars`] of it.
    ///
    /// # Panics
    ///
    /// As [`StreamParser::push_chars`].
    pub fn push_char(&mut self, c: char) -> bool {
        self.push_chars(c.encode_utf8(&mut [0; 4]))
    }

    /// Consumes a chunk of raw text (lexed pipelines only): the lexer
    /// resumes its open scan over the chunk, and every token whose
    /// right boundary the chunk resolved is certified and shifted into
    /// the LR parse — those settled before a lexical error included.
    /// Returns `false` once the stream can no longer accept any
    /// continuation.
    ///
    /// # Panics
    ///
    /// Panics on non-lexed pipelines, whose streams consume [`Symbol`]s
    /// — use [`StreamParser::push`] there.
    pub fn push_chars(&mut self, s: &str) -> bool {
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
        let from = tokens.len();
        // A lexical error leaves the lexer dead, which the viability
        // bit below reports.
        let _ = lex.push_str_into(s, tokens);
        for t in &tokens[from..] {
            // Certify the lexeme at its munch boundary: the token's
            // span bytes are already part of the pushed text, so the
            // running tiling cursor and the table walk both resolve
            // right here.
            if lex_fault.is_none() {
                if let Err(e) = cert.check(lex.raw_input(), t) {
                    *lex_fault = Some(e);
                }
            }
            if let Some(sym) = t.sym {
                lr.push(sym);
            }
        }
        self.is_viable()
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
            // Flush the open scan (on a copy of the lexer's open scan,
            // not of the accumulated input) and simulate the flushed
            // symbols plus the end-of-input reductions over a scratch
            // overlay of the LR state stack: the probe never
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

    /// The session mode tag of this stream's backend.
    fn mode_tag(&self) -> u8 {
        match &self.mode {
            Mode::Dfa { .. } => session::MODE_DFA,
            Mode::Lr(_) => session::MODE_LR,
            Mode::LexedLr { .. } => session::MODE_LEXED,
        }
    }

    /// Parks the stream: writes a versioned, checksummed
    /// [`SessionState`] that [`crate::Engine::resume`] can later turn
    /// back into an equivalent live stream — same accepts, same
    /// rejects, same certified trees, in this process or another.
    ///
    /// A parked parse is determined by the pipeline and its input, so
    /// the blob carries the input and nothing else: the pushed symbols
    /// ([`StreamParser::input`]) for DFA and LR streams, the pushed raw
    /// text ([`StreamParser::raw_input`]) for lexed streams.
    ///
    /// # Errors
    ///
    /// [`SessionError::Unsupported`] if the stream has recorded a
    /// certification fault — a faulted configuration is evidence of a
    /// driver bug, not a parse state worth parking.
    pub fn snapshot(&self) -> Result<SessionState, SessionError> {
        if self.lr_fault().is_some() || self.lex_fault().is_some() {
            return Err(SessionError::Unsupported(
                "streams with a recorded certification fault cannot be parked".into(),
            ));
        }
        let fingerprint = self.pipeline.spec().session_fingerprint();
        Ok(match self.raw_input() {
            Some(text) => session::park_text(fingerprint, text),
            None => session::park_symbols(fingerprint, self.mode_tag(), self.input()),
        })
    }

    /// Un-parks a session over `pipeline` — the inverse of
    /// [`StreamParser::snapshot`], usually reached through
    /// [`Engine::resume`](crate::Engine::resume).
    ///
    /// Resume opens a fresh stream over `pipeline` and pushes the parked
    /// input through the live path ([`StreamParser::push_all`], or one
    /// [`StreamParser::push_chars`] of the raw text, which is
    /// chunk-invariant): the resumed stream *is* a stream that was fed
    /// that input, so it certifies exactly what an uninterrupted one
    /// would. The blob is untrusted; its checksum and version gate the
    /// framing, its spec fingerprint gates which pipeline it may
    /// re-enter, and the replay decides what the input means.
    ///
    /// # Errors
    ///
    /// [`SessionError::Corrupt`] / [`SessionError::Version`] /
    /// [`SessionError::SpecMismatch`] for framing-level rejections;
    /// [`SessionError::Invalid`] when the blob's mode is not this
    /// pipeline's stream mode, a parked symbol is outside its alphabet,
    /// or the replay records a certification fault.
    pub fn resume(
        pipeline: Arc<CompiledPipeline>,
        state: &SessionState,
    ) -> Result<StreamParser, SessionError> {
        let fingerprint = pipeline.spec().session_fingerprint();
        let (tag, input) = session::unpark(state, fingerprint)?;
        let invalid = SessionError::Invalid;
        let n_syms = pipeline.alphabet().names().len();
        let mut stream = StreamParser::open(pipeline).map_err(|e| invalid(e.to_string()))?;
        if tag != stream.mode_tag() {
            return Err(invalid(format!(
                "blob is a mode-{tag} session, the pipeline streams in mode {}",
                stream.mode_tag()
            )));
        }
        match input {
            ParkedInput::Symbols(input) => {
                // Input validation: an out-of-range index would panic
                // in the DFA's `delta`.
                if let Some(sym) = input.iter().find(|s| s.index() >= n_syms) {
                    return Err(invalid(format!(
                        "symbol index {} is outside the {n_syms}-symbol alphabet",
                        sym.index()
                    )));
                }
                stream.push_all(&input);
            }
            ParkedInput::Text(text) => {
                stream.push_chars(&text);
            }
        }
        if let Some(e) = stream.lr_fault() {
            return Err(invalid(format!("replaying the parked input faulted: {e}")));
        }
        if let Some(e) = stream.lex_fault() {
            return Err(invalid(format!("replaying the parked input faulted: {e}")));
        }
        Ok(stream)
    }

    /// Ends the stream, returning the intrinsically checked outcome.
    ///
    /// DFA mode re-runs the pipeline's composed verified parser over the
    /// accumulated input. LR mode completes the pending reductions —
    /// each already certified as it was performed — and closes the
    /// lone-start obligation: no whole-tree re-validation, same
    /// guarantee. Lexed mode settles the lexer's open scan (certifying
    /// the flushed lexemes at their munch boundaries, like
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
    fn a_lex_error_keeps_the_tokens_settled_before_it() {
        // `x` resolves the `+` before it turns out unlexable; both
        // tokens reach the stream, and the error is the one-shot one.
        let engine = Engine::new();
        for per_char in [false, true] {
            let mut stream = engine.stream(&PipelineSpec::arith_lexed()).unwrap();
            let viable = if per_char {
                "1+x".chars().fold(true, |_, c| stream.push_char(c))
            } else {
                stream.push_chars("1+x")
            };
            assert!(!viable && !stream.is_viable());
            let texts: Vec<&str> = stream
                .tokens()
                .unwrap()
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            assert_eq!(texts, ["1", "+"], "per char: {per_char}");
            assert_eq!(stream.input().len(), 2, "both reached the LR stream");
            let Mode::LexedLr { lex, .. } = &stream.mode else {
                unreachable!("a lexed stream")
            };
            assert_eq!(
                lex.error(),
                Some(&lambek_lex::LexError { at: 2, found: 'x' })
            );
            assert_eq!(stream.raw_input(), Some("1+x"));
        }
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
    fn a_blob_in_another_mode_is_invalid() {
        let engine = Engine::new();
        let spec = PipelineSpec::dyck(8);
        let pipeline = engine.get_or_compile(&spec).unwrap();
        let input = Alphabet::parens().parse_str("(()").unwrap();
        for (tag, resumes) in [(session::MODE_DFA, true), (session::MODE_LR, false)] {
            let blob = session::park_symbols(spec.session_fingerprint(), tag, &input);
            match StreamParser::resume(pipeline.clone(), &blob) {
                Ok(stream) => assert!(resumes && stream.input() == &input, "mode {tag}"),
                Err(e) => assert!(
                    !resumes && matches!(e, SessionError::Invalid(_)),
                    "mode {tag}: {e}"
                ),
            }
        }
    }

    #[test]
    fn a_conflicted_cfg_is_refused_before_a_stream_opens() {
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
            Err(EngineError::Compile(m)) if m.contains("not LALR(1)")
        ));
    }
}
