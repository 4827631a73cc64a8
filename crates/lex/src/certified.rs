//! The certified wrapper: every token stream that leaves the lexing
//! subsystem is re-validated against the raw input and the spec.
//!
//! The maximal-munch driver is fast *extrinsically* verified code;
//! [`CertifiedLexer`] restores the paper's intrinsic-verification
//! contract at the subsystem boundary, the same move `lambek-lr` makes
//! for its parse trees. Two independent checks run on every emitted
//! stream:
//!
//! 1. **Tiling** — the lexeme spans concatenate *exactly* to the input:
//!    contiguous, in order, first at byte 0, last ending at
//!    `input.len()`, and each token's text is literally the bytes its
//!    span points at. This is the lexer-level analogue of the parse
//!    trees' "the yield is the input".
//! 2. **Membership** — each lexeme is re-matched against its rule's
//!    regex by the independent Brzozowski-derivative checker
//!    ([`regex_grammars::derivative::matches`]), which shares no code
//!    with the Thompson/determinize/minimize pipeline the driver runs
//!    on. A bug anywhere in that pipeline (or in the driver's
//!    backtracking) surfaces as a [`LexCertifyError`], never as a bad
//!    token reaching the parser.
//!
//! Both checks are *incremental*: [`LexCertifier`] carries the tiling
//! cursor as a running invariant and discharges the membership
//! obligation per token at its munch boundary, so [`CertifiedLexer::lex`]
//! and the streaming pipelines certify in O(lexeme) amortized work per
//! token instead of re-walking the whole stream at the end. The
//! re-match walks a [`DerivTable`] per rule: the same derivatives, all
//! computed when the lexer compiles, over the symbol classes read off
//! the rule's own regex. The walk is one array load per character, with
//! no lock, no hashing and no allocation, and the tables are immutable,
//! so certifiers on different threads share them without contention.
//! [`CertifiedLexer::lex_full`] keeps the original whole-stream
//! re-validation, on [`regex_grammars::derivative::matches`], as the
//! slow differential reference.

use std::fmt;
use std::sync::Arc;

use regex_grammars::deriv_table::{DerivTable, StateCapExceeded, SymbolClasses};
use regex_grammars::derivative::matches;

use crate::compile::LexAutomaton;
use crate::driver::{LexError, MunchMemoShed, RawLexeme, Token, TokenStream};
use crate::spec::LexSpec;

/// The most derivative state units one lexer's certifier tables may
/// cost, all rules together (a state costs one unit per
/// [`NODES_PER_STATE`](regex_grammars::deriv_table::NODES_PER_STATE)
/// regex nodes it derives, at least one). A spec
/// that needs more is refused at compile time with
/// [`StateBudgetExceeded`].
pub const MAX_CERTIFIER_STATES: usize = 65_536;

/// The outcome of a certified lex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexedOutcome {
    /// The input lexes; the stream has passed both certification
    /// checks.
    Tokens(TokenStream),
    /// The input does not lex; the error points at the offending byte.
    Reject(LexError),
    /// The lex was shed before it judged the input: its maximal-munch
    /// memo would have outgrown its cap.
    Shed(MunchMemoShed),
}

impl LexedOutcome {
    /// The certified token stream, if the input lexed.
    pub fn tokens(&self) -> Option<&TokenStream> {
        match self {
            LexedOutcome::Tokens(t) => Some(t),
            LexedOutcome::Reject(_) | LexedOutcome::Shed(_) => None,
        }
    }

    /// `true` when the input lexed.
    pub fn is_accept(&self) -> bool {
        matches!(self, LexedOutcome::Tokens(_))
    }
}

/// A violation of the lexer's certification contract: the driver
/// produced a token stream the independent checks refuse. This never
/// happens for a correctly compiled automaton; it is surfaced (rather
/// than trusted or panicked on) so callers can treat it as an internal
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexCertifyError {
    /// What the re-validation found.
    pub message: String,
}

impl fmt::Display for LexCertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lexer emitted an invalid token stream: {}", self.message)
    }
}

impl std::error::Error for LexCertifyError {}

/// A spec whose certifier tables would cost more than
/// [`MAX_CERTIFIER_STATES`] state units: refused when the lexer
/// compiles, so no request ever walks a partial table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateBudgetExceeded {
    /// The rule whose table crossed the cap.
    pub rule: String,
    /// The cap, in state units over all rules of the spec.
    pub cap: usize,
    /// The units spent when the build stopped: every earlier rule's
    /// table, plus this rule's states up to and including the one the
    /// cap refused. Always more than `cap`.
    pub needed: usize,
}

impl fmt::Display for StateBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let exceeded = StateCapExceeded {
            cap: self.cap,
            needed: self.needed,
        };
        write!(f, "lexer rule {:?}: certifier {exceeded}", self.rule)
    }
}

impl std::error::Error for StateBudgetExceeded {}

/// A maximal-munch lexer whose every output is re-validated: spans must
/// tile the input and every lexeme must independently re-match its
/// rule's regex.
///
/// Cheap to clone (`Arc`-shared automaton) and `Send + Sync`.
///
/// # Examples
///
/// ```
/// use lambek_core::alphabet::Alphabet;
/// use lambek_lex::{CertifiedLexer, LexSpecBuilder};
///
/// let sigma = Alphabet::from_chars("ab ");
/// let spec = LexSpecBuilder::new(sigma)
///     .token("A", "aa*")?
///     .token("B", "b")?
///     .skip("WS", "  *")?
///     .build()?;
/// let lexer = CertifiedLexer::compile(spec).expect("tables fit the cap");
/// let out = lexer.lex("aa b").unwrap();
/// let stream = out.tokens().expect("lexes");
/// assert_eq!(stream.yield_string().len(), 2); // A B — the skip is gone
/// # Ok::<(), lambek_lex::SpecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CertifiedLexer {
    auto: LexAutomaton,
    /// One eager derivative table per rule, in rule order, shared by
    /// every certifier this lexer hands out.
    tables: Arc<[DerivTable]>,
}

impl CertifiedLexer {
    /// Compiles `spec` (Thompson → tagged determinize → minimize) and
    /// wraps it with the certification layer. An `Arc`-shared spec is
    /// kept, not copied.
    ///
    /// # Errors
    ///
    /// [`StateBudgetExceeded`] if the rules' derivative tables cost
    /// more than [`MAX_CERTIFIER_STATES`] state units.
    pub fn compile(spec: impl Into<Arc<LexSpec>>) -> Result<CertifiedLexer, StateBudgetExceeded> {
        CertifiedLexer::from_automaton(LexAutomaton::compile(spec))
    }

    /// Wraps an already-compiled automaton, building each rule's
    /// derivative table from the rule's regex alone.
    ///
    /// # Errors
    ///
    /// As [`CertifiedLexer::compile`].
    pub fn from_automaton(auto: LexAutomaton) -> Result<CertifiedLexer, StateBudgetExceeded> {
        CertifiedLexer::with_state_cap(auto, MAX_CERTIFIER_STATES)
    }

    /// [`CertifiedLexer::from_automaton`] under an explicit state cap.
    fn with_state_cap(
        auto: LexAutomaton,
        cap: usize,
    ) -> Result<CertifiedLexer, StateBudgetExceeded> {
        let sigma_len = auto.spec().alphabet().len();
        let mut left = cap;
        let tables = auto
            .spec()
            .rules()
            .iter()
            .map(|rule| {
                let classes = SymbolClasses::of_regex(&rule.regex, sigma_len);
                let table = DerivTable::build(&rule.regex, classes, left).map_err(|e| {
                    StateBudgetExceeded {
                        rule: rule.name.clone(),
                        cap,
                        needed: cap - left + e.needed,
                    }
                })?;
                left -= table.cost();
                Ok(table)
            })
            .collect::<Result<_, _>>()?;
        Ok(CertifiedLexer { auto, tables })
    }

    /// The spec being served.
    pub fn spec(&self) -> &LexSpec {
        self.auto.spec()
    }

    /// The compiled automaton (introspection, streams, benchmarks).
    pub fn automaton(&self) -> &LexAutomaton {
        &self.auto
    }

    /// Lexes `input` and certifies the result, incrementally: each
    /// lexeme is checked at its munch boundary (span tiling as a
    /// running cursor, derivative re-match per token) rather than in a
    /// whole-stream pass at the end.
    ///
    /// # Errors
    ///
    /// [`LexCertifyError`] if the driver's output fails re-validation —
    /// impossible for a correctly compiled automaton, surfaced instead
    /// of trusted. A merely *unlexable* input is not an error; it comes
    /// back as [`LexedOutcome::Reject`], and a lex whose munch memo
    /// outgrew its cap as [`LexedOutcome::Shed`].
    pub fn lex(&self, input: &str) -> Result<LexedOutcome, LexCertifyError> {
        let mut cert = self.certifier();
        let mut tokens = Vec::new();
        let mut lexemes = self.auto.lexemes(input);
        for item in &mut lexemes {
            match item {
                Err(e) => return Ok(LexedOutcome::Reject(e)),
                Ok(t) => {
                    cert.check(input, &t)?;
                    tokens.push(t);
                }
            }
        }
        if let Some(shed) = lexemes.shed() {
            return Ok(LexedOutcome::Shed(shed));
        }
        cert.finish(input)?;
        Ok(LexedOutcome::Tokens(TokenStream::from_tokens(tokens)))
    }

    /// [`CertifiedLexer::lex`] with the original whole-stream
    /// re-validation instead of the incremental certifier: the driver
    /// materializes the full token list, then [`CertifiedLexer::certify`]
    /// re-walks it from scratch. Kept as the slow reference the
    /// differential suites compare the incremental path against.
    ///
    /// # Errors
    ///
    /// As [`CertifiedLexer::lex`].
    pub fn lex_full(&self, input: &str) -> Result<LexedOutcome, LexCertifyError> {
        match self.auto.lex_raw(input) {
            Err(e) => Ok(LexedOutcome::Reject(e)),
            Ok(tokens) => {
                self.certify(input, &tokens)?;
                Ok(LexedOutcome::Tokens(TokenStream::from_tokens(tokens)))
            }
        }
    }

    /// Opens a fresh incremental certifier for one input: feed it every
    /// emitted token in order via [`LexCertifier::check`], then close
    /// the tiling with [`LexCertifier::finish`].
    pub fn certifier(&self) -> LexCertifier {
        LexCertifier {
            auto: self.auto.clone(),
            tables: self.tables.clone(),
            cursor: 0,
            index: 0,
        }
    }

    /// The certification pass on its own: checks that `tokens` tile
    /// `input` exactly and that every lexeme independently re-matches
    /// its rule's regex. Exposed so streaming consumers (which collect
    /// tokens incrementally) can run the same checks at `finish`.
    ///
    /// # Errors
    ///
    /// [`LexCertifyError`] describing the first violated obligation.
    pub fn certify(&self, input: &str, tokens: &[Token]) -> Result<(), LexCertifyError> {
        let spec = self.spec();
        let err = |message: String| Err(LexCertifyError { message });
        // (1) Spans tile the input exactly.
        let mut pos = 0usize;
        for (i, t) in tokens.iter().enumerate() {
            if t.span.start != pos {
                return err(format!(
                    "token {i} starts at byte {} but the previous lexeme ended at {pos}",
                    t.span.start
                ));
            }
            match input.get(t.span.start..t.span.end) {
                Some(slice) if slice == t.text => {}
                _ => {
                    return err(format!(
                        "token {i} claims {:?} at {} but the input disagrees",
                        t.text, t.span
                    ))
                }
            }
            pos = t.span.end;
        }
        if pos != input.len() {
            return err(format!(
                "lexemes cover only {pos} of {} input bytes",
                input.len()
            ));
        }
        // (2) Independent regex membership per lexeme, plus internal
        // consistency of the rule/symbol bookkeeping. Lexemes repeat
        // heavily (operators, short numerals), so verdicts are memoized
        // per (rule, text) within the pass — each *distinct* lexeme is
        // still re-derived from scratch.
        let mut verdicts: std::collections::HashMap<(usize, &str), bool> =
            std::collections::HashMap::new();
        for (i, t) in tokens.iter().enumerate() {
            let Some(rule) = spec.rules().get(t.rule) else {
                return err(format!("token {i} references unknown rule {}", t.rule));
            };
            if t.sym != spec.token_symbol(t.rule) {
                return err(format!(
                    "token {i} carries the wrong token-alphabet symbol for rule {:?}",
                    rule.name
                ));
            }
            let ok = match verdicts.get(&(t.rule, t.text.as_str())) {
                Some(&ok) => ok,
                None => {
                    let ok = spec
                        .alphabet()
                        .parse_str(&t.text)
                        .is_some_and(|w| matches(&rule.regex, &w));
                    verdicts.insert((t.rule, t.text.as_str()), ok);
                    ok
                }
            };
            if !ok {
                return err(format!(
                    "token {i} lexeme {:?} is not in rule {:?} (derivative re-match failed)",
                    t.text, rule.name
                ));
            }
        }
        Ok(())
    }
}

/// The incremental form of [`CertifiedLexer::certify`]: the same two
/// obligations — span tiling and independent regex membership —
/// discharged token by token as the driver emits them, instead of in a
/// whole-stream pass at the end.
///
/// The tiling check is a running byte cursor: each token must start
/// exactly where the previous lexeme ended and its text must be
/// literally the input bytes its span points at; [`LexCertifier::finish`]
/// closes the invariant by demanding the cursor reached the end of the
/// input. Membership re-matches each lexeme against its rule's regex by
/// walking the rule's [`DerivTable`]: O(lexeme) array loads, no lock,
/// no hashing and no allocation. The certifier adds the tokens it
/// certified to the process-wide [`crate::probes`] once, when it drops
/// (a clone adds its own count).
#[derive(Debug, Clone)]
pub struct LexCertifier {
    auto: LexAutomaton,
    /// The lexer's immutable per-rule derivative tables.
    tables: Arc<[DerivTable]>,
    /// Where the next token must start: the running tiling invariant.
    cursor: usize,
    /// How many tokens have been checked (for error messages).
    index: usize,
}

impl LexCertifier {
    /// Certifies the next emitted token against `input`, advancing the
    /// tiling cursor. `input` must be the same string (or a growing
    /// extension of it) on every call.
    ///
    /// # Errors
    ///
    /// [`LexCertifyError`] describing the first violated obligation;
    /// the messages match [`CertifiedLexer::certify`]'s.
    pub fn check(&mut self, input: &str, t: &Token) -> Result<(), LexCertifyError> {
        let i = self.index;
        let err = |message: String| Err(LexCertifyError { message });
        if t.span.start != self.cursor {
            return err(format!(
                "token {i} starts at byte {} but the previous lexeme ended at {}",
                t.span.start, self.cursor
            ));
        }
        match input.get(t.span.start..t.span.end) {
            Some(slice) if slice == t.text => {}
            _ => {
                return err(format!(
                    "token {i} claims {:?} at {} but the input disagrees",
                    t.text, t.span
                ))
            }
        }
        self.check_membership(i, t.rule, t.sym, &t.text)?;
        self.cursor = t.span.end;
        self.index += 1;
        Ok(())
    }

    /// Certifies the next emitted lexeme by *span*, reading the lexeme
    /// text straight out of `input`: the allocation-free form of
    /// [`LexCertifier::check`] the fused pipelines use, where no
    /// [`Token`] (and no owned text) ever exists. The obligations are
    /// identical — the span must start at the tiling cursor and denote
    /// a real slice of `input`, and that slice must independently
    /// re-match the rule's regex — only the "claimed text equals the
    /// slice" clause is vacuous, since the text *is* the slice.
    ///
    /// # Errors
    ///
    /// As [`LexCertifier::check`], with matching messages.
    #[inline]
    pub fn check_raw(&mut self, input: &str, l: &RawLexeme) -> Result<(), LexCertifyError> {
        let i = self.index;
        if l.span.start != self.cursor {
            return Err(LexCertifyError {
                message: format!(
                    "token {i} starts at byte {} but the previous lexeme ended at {}",
                    l.span.start, self.cursor
                ),
            });
        }
        let Some(slice) = input.get(l.span.start..l.span.end) else {
            return Err(LexCertifyError {
                message: format!(
                    "token {i} claims span {} but the input has no such slice",
                    l.span
                ),
            });
        };
        self.check_membership(i, l.rule, l.sym, slice)?;
        self.cursor = l.span.end;
        self.index += 1;
        Ok(())
    }

    /// The membership half shared by [`LexCertifier::check`] and
    /// [`LexCertifier::check_raw`]: rule/symbol bookkeeping plus the
    /// independent derivative re-match, a walk over `text`'s characters
    /// in the rule's table.
    #[inline]
    fn check_membership(
        &self,
        i: usize,
        rule_idx: usize,
        sym: Option<lambek_core::alphabet::Symbol>,
        text: &str,
    ) -> Result<(), LexCertifyError> {
        let spec = self.auto.spec();
        let err = |message: String| Err(LexCertifyError { message });
        let Some(rule) = spec.rules().get(rule_idx) else {
            return err(format!("token {i} references unknown rule {rule_idx}"));
        };
        if sym != spec.token_symbol(rule_idx) {
            return err(format!(
                "token {i} carries the wrong token-alphabet symbol for rule {:?}",
                rule.name
            ));
        }
        if !self.tables[rule_idx].matches_str(spec.alphabet(), text) {
            return err(format!(
                "token {i} lexeme {text:?} is not in rule {:?} (derivative re-match failed)",
                rule.name
            ));
        }
        Ok(())
    }

    /// Closes the tiling invariant: the checked lexemes must cover the
    /// whole of `input`.
    ///
    /// # Errors
    ///
    /// [`LexCertifyError`] if bytes remain past the last lexeme.
    pub fn finish(&self, input: &str) -> Result<(), LexCertifyError> {
        if self.cursor != input.len() {
            return Err(LexCertifyError {
                message: format!(
                    "lexemes cover only {} of {} input bytes",
                    self.cursor,
                    input.len()
                ),
            });
        }
        Ok(())
    }

    /// How many tokens have been certified so far.
    pub fn checked(&self) -> usize {
        self.index
    }

    /// The tiling cursor: the byte offset the next token must start at.
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

impl Drop for LexCertifier {
    fn drop(&mut self) {
        crate::probes::note_certified(self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Span;
    use crate::spec::LexSpecBuilder;
    use lambek_core::alphabet::Alphabet;

    fn lexer() -> CertifiedLexer {
        let sigma = Alphabet::from_chars("ab ");
        CertifiedLexer::compile(
            LexSpecBuilder::new(sigma)
                .token("A", "aa*")
                .unwrap()
                .token("B", "b")
                .unwrap()
                .skip("WS", "  *")
                .unwrap()
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn accepted_streams_are_certified() {
        let lexer = lexer();
        let out = lexer.lex("aab aa b").unwrap();
        let ts = out.tokens().unwrap();
        // "aa" "b" " " "aa" " " "b" — the tiling includes the skips…
        assert_eq!(ts.tokens().len(), 6);
        // …and the yield drops them: A B A B.
        assert_eq!(ts.yield_string().len(), 4);
        assert!(out.is_accept());
    }

    #[test]
    fn a_certifier_adds_its_tokens_to_the_probe_when_it_drops() {
        let lexer = lexer();
        let mut cert = lexer.certifier();
        for l in lexer.automaton().raw_lexemes("aab b") {
            cert.check_raw("aab b", &l.unwrap()).unwrap();
        }
        let before = crate::probes::snapshot().certified_lexemes;
        drop(cert);
        // Other tests certify concurrently: at least these 4 land.
        assert!(crate::probes::snapshot().certified_lexemes >= before + 4);
    }

    #[test]
    fn rejections_are_outcomes_not_certify_errors() {
        let lexer = lexer();
        let out = lexer.lex("aXa").unwrap();
        assert!(!out.is_accept());
        assert!(out.tokens().is_none());
        match out {
            LexedOutcome::Reject(e) => assert_eq!(e.at, 1),
            other => panic!("X does not lex, got {other:?}"),
        }
    }

    #[test]
    fn certify_catches_every_kind_of_corruption() {
        let lexer = lexer();
        let good = lexer.auto.lex_raw("ab").unwrap();
        assert!(lexer.certify("ab", &good).is_ok());

        // A gap.
        let mut bad = good.clone();
        bad.remove(0);
        assert!(lexer
            .certify("ab", &bad)
            .unwrap_err()
            .message
            .contains("ended"));

        // Wrong text for the span.
        let mut bad = good.clone();
        bad[0].text = "b".to_owned();
        assert!(lexer.certify("ab", &bad).is_err());

        // Truncated coverage.
        let mut bad = good.clone();
        bad.pop();
        assert!(lexer
            .certify("ab", &bad)
            .unwrap_err()
            .message
            .contains("cover"));

        // Lexeme not in its rule's language (derivative re-match).
        let mut bad = good.clone();
        bad[0].rule = 1; // claim "a" came from rule B
        bad[0].sym = lexer.spec().token_symbol(1);
        assert!(lexer
            .certify("ab", &bad)
            .unwrap_err()
            .message
            .contains("derivative"));

        // Unknown rule index.
        let mut bad = good.clone();
        bad[0].rule = 99;
        assert!(lexer.certify("ab", &bad).is_err());

        // Wrong token symbol.
        let mut bad = good;
        bad[0].sym = None;
        assert!(lexer.certify("ab", &bad).is_err());
    }

    #[test]
    fn empty_input_certifies_trivially() {
        let lexer = lexer();
        let out = lexer.lex("").unwrap();
        let ts = out.tokens().unwrap();
        assert!(ts.tokens().is_empty());
        assert!(ts.yield_string().is_empty());
        assert_eq!(ts.span_of_yield(0, 0), Span::empty(0));
    }

    #[test]
    fn a_table_over_the_cap_sheds_with_the_rule_named() {
        let sigma = Alphabet::from_chars("ab");
        let spec = LexSpecBuilder::new(sigma)
            .token("B", "b")
            .unwrap()
            .token("FOURTH_A", "(a|b)*a(a|b)(a|b)(a|b)")
            .unwrap()
            .build()
            .unwrap();
        let auto = LexAutomaton::compile(spec);
        let shed = CertifiedLexer::with_state_cap(auto.clone(), 8).unwrap_err();
        assert_eq!((shed.rule.as_str(), shed.cap), ("FOURTH_A", 8));
        assert!(shed.needed > 8, "{shed}");
        let shown = shed.to_string();
        assert!(
            shown.contains("\"FOURTH_A\"") && shown.contains('8'),
            "{shown}"
        );
        // Under the real cap the same spec compiles and certifies.
        let lexer = CertifiedLexer::from_automaton(auto).unwrap();
        assert!(lexer.lex("babbb").unwrap().is_accept());
    }
}
