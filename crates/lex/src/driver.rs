//! The maximal-munch driver: one left-to-right pass with last-accept
//! backtracking, run one-shot over a whole input or pushed piece by
//! piece.
//!
//! Both forms run the same settle step (`Cursor::settle`) over the
//! tagged DFA: step per character, remember the most recent tagged
//! (accepting) state as the *last accept*, and when the automaton goes
//! dead — a non-co-reachable state, or a character outside the alphabet
//! — cut the token at the last accept and start the next scan there,
//! from a fresh automaton. The rule priority baked into the tags at
//! determinization time breaks ties between rules accepting the same
//! longest match. A dead automaton with *no* recorded accept is a
//! [`LexError`] carrying the byte offset where the doomed token began.
//! The two forms differ only at the end of the text: one-shot input
//! ([`RawLexemes`]) ends for good, so a scan that runs out of it cuts at
//! its last accept; a push-mode [`LexStream`] keeps such a scan open
//! and resumes it, in the state it stopped in, when more text arrives.
//!
//! Backtracking alone is quadratic: on `a`ⁿ against `A = a`,
//! `AB = a*b`, every token first runs `AB` to the end of the input. The
//! settle step is linear because it memoizes failed `(DFA state, byte
//! position)` pairs (Reps, "'Maximal-munch' tokenization in linear
//! time", TOPLAS 1998): a pair fails when no accepting state is
//! reachable from it before the automaton dies or the input ends. After
//! a scan backtracks, every pair of its overrun is marked, and a later
//! scan that reaches a marked pair stops there as if the automaton had
//! died. A pair is marked once and every scan stops at the first marked
//! pair it reaches, so the overruns of a whole lex step at most one byte
//! per pair plus one char per token: the lex costs O(|states| · n)
//! steps. While more text may still be pushed, only scans that died
//! inside the text already pushed are marked: the end of the pushed
//! text proves nothing about the pairs before it.
//! The memo holds only the overrun window and is allocated only once a
//! scan backtracks. A one-shot serving pass caps it at
//! [`MAX_MUNCH_MEMO_BYTES`]: past the cap the lex is shed
//! ([`MunchMemoShed`]). [`LexAutomaton::lex_raw`] and streams run it
//! uncapped.

use std::fmt;

use lambek_core::alphabet::{GString, Symbol};

use crate::compile::{LexAutomaton, LexCore};
use crate::spec::LexSpec;

/// A byte range `[start, end)` into the raw input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first byte of the lexeme.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// The empty span at `at` (used for end-of-input rejections).
    pub fn empty(at: usize) -> Span {
        Span { start: at, end: at }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` for zero-length spans.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytes {}..{}", self.start, self.end)
    }
}

/// One lexed token (skip-rule matches included — the full token list
/// tiles the input exactly; the parser-facing yield excludes them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Index of the matching rule in the spec (priority order).
    pub rule: usize,
    /// The matched text.
    pub text: String,
    /// Where the lexeme sits in the raw input.
    pub span: Span,
    /// The rule's symbol in the token alphabet; `None` for skip rules.
    pub sym: Option<Symbol>,
}

/// A lexical error: no rule matches any prefix of the input starting at
/// the offending position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset where the unmatchable token begins.
    pub at: usize,
    /// Its first character.
    pub found: char,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lexical error at byte {}: no token matches starting at {:?}",
            self.at, self.found
        )
    }
}

impl std::error::Error for LexError {}

/// The most memory one one-shot lex may spend on its maximal-munch
/// memo: one bit per DFA state per byte of the backtrack window it
/// holds. A lex that needs more is shed with [`MunchMemoShed`].
pub const MAX_MUNCH_MEMO_BYTES: usize = 4 << 20;

/// A one-shot lex was shed because its maximal-munch memo would have
/// outgrown [`MAX_MUNCH_MEMO_BYTES`]. This is not a lexical error: the
/// input was not judged. Going on without the memo would be quadratic,
/// so the lex stops instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MunchMemoShed {
    /// Byte offset of the token whose backtrack needed the memo.
    pub at: usize,
    /// Memo bytes that backtrack window needed.
    pub needed: usize,
    /// The cap, in bytes.
    pub cap: usize,
}

impl fmt::Display for MunchMemoShed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex shed at byte {}: the maximal-munch memo needs {} bytes, over its {}-byte cap",
            self.at, self.needed, self.cap
        )
    }
}

impl std::error::Error for MunchMemoShed {}

/// A certified-lexer output: the full token list (skips included) plus
/// the token-level string the parser consumes and the spans backing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenStream {
    tokens: Vec<Token>,
    yield_string: GString,
    yield_spans: Vec<Span>,
}

impl TokenStream {
    /// Assembles a stream from a token list (precomputing the yield).
    pub fn from_tokens(tokens: Vec<Token>) -> TokenStream {
        let mut yield_string = GString::with_capacity(tokens.len());
        let mut yield_spans = Vec::with_capacity(tokens.len());
        for t in &tokens {
            if let Some(sym) = t.sym {
                yield_string.push(sym);
                yield_spans.push(t.span);
            }
        }
        TokenStream {
            tokens,
            yield_string,
            yield_spans,
        }
    }

    /// Every token, skip-rule matches included, in input order.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// The token-level string (skips excluded) — the `GString` the
    /// downstream grammar parses.
    pub fn yield_string(&self) -> &GString {
        &self.yield_string
    }

    /// Byte spans of the yield, index-aligned with
    /// [`TokenStream::yield_string`].
    pub fn yield_spans(&self) -> &[Span] {
        &self.yield_spans
    }

    /// The span of yield position `k`, or the empty span at
    /// `input_len` when `k` is one past the end (an "unexpected end of
    /// input" rejection).
    pub fn span_of_yield(&self, k: usize, input_len: usize) -> Span {
        self.yield_spans
            .get(k)
            .copied()
            .unwrap_or_else(|| Span::empty(input_len))
    }
}

/// A lexeme without its materialized text: rule, byte span, and the
/// token-alphabet symbol (`None` for skip rules). This is what the
/// byte-sliced scanner produces natively — the fused lex→LR path
/// consumes it directly, and [`Token`] is just a `RawLexeme` plus the
/// `String` copy of its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawLexeme {
    /// Index of the matching rule in the spec (priority order).
    pub rule: usize,
    /// Where the lexeme sits in the raw input.
    pub span: Span,
    /// The rule's symbol in the token alphabet; `None` for skip rules.
    pub sym: Option<Symbol>,
}

impl RawLexeme {
    /// Materializes the [`Token`] this lexeme denotes (copies the span's
    /// bytes out of `input`).
    pub fn to_token(self, input: &str) -> Token {
        Token {
            rule: self.rule,
            text: input[self.span.start..self.span.end].to_owned(),
            span: self.span,
            sym: self.sym,
        }
    }
}

/// Why a `scan_token` stopped consuming input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanStop {
    /// The automaton died at the byte offset: the character there is
    /// outside the alphabet, or stepping on it reaches a non-live
    /// state. The character was *not* consumed.
    Dead(usize),
    /// The memo holds the state reached at this byte offset as failed:
    /// no accept is reachable from it, so the scan ends exactly as if
    /// the automaton had died here.
    Failed(usize),
    /// The input ran out at byte offset `at` while the automaton was
    /// still live, in `state`. The scan can be resumed there once more
    /// input is pushed; at the end of final input it cuts at its last
    /// accept.
    EndOfInput {
        /// Where the input ran out.
        at: usize,
        /// The DFA state there.
        state: u32,
    },
}

/// The result of one maximal-munch scan: the most recent accept seen
/// (`(rule, end byte)`), and why and where the scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scan {
    pub(crate) last: Option<(usize, usize)>,
    pub(crate) stop: ScanStop,
    /// Whether the scan dropped to the char-level non-ASCII fallback at
    /// least once (feeds the fast-lane/fallback probes; no semantic
    /// meaning).
    pub(crate) fell_back: bool,
}

impl Scan {
    /// The scan of a token at byte `at` before it steps: the DFA in
    /// `init`, nothing accepted. A scan resumes from where it ran out of
    /// input, so this is where a fresh one "ran out".
    fn start(init: u32, at: usize) -> Scan {
        Scan {
            last: None,
            stop: ScanStop::EndOfInput { at, state: init },
            fell_back: false,
        }
    }

    /// The byte offset the scan stopped at.
    #[inline]
    pub(crate) fn stop_at(&self) -> usize {
        match self.stop {
            ScanStop::Dead(at) | ScanStop::Failed(at) | ScanStop::EndOfInput { at, .. } => at,
        }
    }
}

/// Tokens the scanner's fast lane cut without leaving its loop, oldest
/// first: each died on an ASCII byte exactly at its last accept, so it
/// ends there with nothing to backtrack. [`Cursor::settle`] hands them
/// out before it judges the scan that cut them.
#[derive(Debug, Clone)]
struct Burst {
    /// `(rule, end byte)` per cut token; `cuts[next..len]` are pending.
    cuts: [(usize, usize); Burst::CAP],
    len: usize,
    next: usize,
}

impl Burst {
    /// Tokens one scan may cut before it returns.
    const CAP: usize = 32;

    fn new() -> Burst {
        Burst {
            cuts: [(0, 0); Burst::CAP],
            len: 0,
            next: 0,
        }
    }

    /// The oldest pending cut; the buffer empties once all are out.
    #[inline]
    fn pop(&mut self) -> Option<(usize, usize)> {
        if self.next == self.len {
            return None;
        }
        let cut = self.cuts[self.next];
        self.next += 1;
        if self.next == self.len {
            (self.next, self.len) = (0, 0);
        }
        Some(cut)
    }
}

/// One maximal-munch scan, resumed `from` where a scan ran out of input
/// (a fresh token's is [`Scan::start`]): steps the byte-sliced tables
/// until the automaton dies or the input ends, tracking the last accept
/// it sees. This is THE hot loop — everything else (one-shot lexing,
/// push streams, the fused lex→LR feed) is a driver around it, through
/// the settle step.
///
/// The fast lane dispatches 8 bytes per lap entirely inside the flat
/// premultiplied table (one `u64` load decides the whole lap is ASCII;
/// the dead class folds "not in Σ" and "died" into the DEAD sentinel).
/// When the automaton dies there exactly at its last accept, the token
/// needs no settle step: the lane appends it to `burst` and restarts
/// from the initial state on the same byte, until `burst` is full. Any
/// other stop ends the call, and the scan it returns is that of the
/// token after the burst.
///
/// Bytes ≥ 0x80 drop to char-at-a-time stepping through the char-level
/// DFA — identical semantics, only at token-interior non-ASCII — and
/// re-enter the fast lane on the next lap. UTF-8 boundaries therefore
/// only ever matter at the bytes the slow lane actually decodes; spans
/// land on char boundaries by construction.
///
/// With a non-empty `memo`, the fast lane stops at the memo's window:
/// inside it the scan steps char at a time and looks each
/// `(state, position)` pair up before stepping on, ending at the first
/// failed one ([`ScanStop::Failed`]). Outside the window, the fast lane
/// runs with no memo check.
#[inline]
fn scan_token(
    core: &LexCore,
    input: &str,
    from: Scan,
    memo: Option<&MunchMemo>,
    burst: &mut Burst,
) -> Scan {
    let Scan {
        mut last,
        stop,
        mut fell_back,
    } = from;
    let ScanStop::EndOfInput {
        at: start,
        mut state,
    } = stop
    else {
        unreachable!("a scan resumes where its input ran out");
    };
    debug_assert_eq!(burst.len, 0, "a scan starts with its burst handed out");
    let bt = &core.bytes;
    let tab = &bt.next[..];
    let col = &bt.column_of;
    let (init, dead) = (bt.init, bt.dead);
    let bytes = input.as_bytes();
    let n = bytes.len();
    let memo = memo.filter(|m| m.rows > 0);
    // The memo's window `[lo, hi)` of positions; empty without a memo.
    let (lo, hi) = memo.map_or((n, n), |m| (m.base, m.base + m.rows));
    let mut i = start;
    loop {
        // The fast lane runs up to the window, or to the end past it.
        let lane_end = if i < lo {
            lo
        } else if i >= hi {
            n
        } else {
            i
        };
        // Fast lane: 8-byte unrolled ASCII dispatch. The `[u8; 8]` view
        // removes the per-byte bounds checks and lets the inner loop
        // unroll; the single u64 mask test bails to the slow lane when
        // any of the 8 bytes is non-ASCII.
        while i + 8 <= lane_end {
            let chunk: &[u8; 8] = bytes[i..i + 8].try_into().expect("8-byte window");
            if u64::from_ne_bytes(*chunk) & 0x8080_8080_8080_8080 != 0 {
                break;
            }
            for (k, &b) in chunk.iter().enumerate() {
                let c = col[b as usize] as usize;
                let mut next = tab[state as usize + c];
                if next == dead {
                    let at = i + k;
                    if matches!(last, Some((_, end)) if end == at)
                        && !fell_back
                        && burst.len < Burst::CAP
                    {
                        burst.cuts[burst.len] = last.take().expect("an accept here");
                        burst.len += 1;
                        next = tab[init as usize + c];
                    }
                    if next == dead {
                        return Scan {
                            last,
                            stop: ScanStop::Dead(at),
                            fell_back,
                        };
                    }
                }
                state = next;
                let a = tab[state as usize];
                if a != 0 {
                    last = Some(((a - 1) as usize, i + k + 1));
                }
            }
            i += 8;
        }
        // Slow lane: one step (tail byte, a non-ASCII char through the
        // char-level DFA, or any char inside the memo's window), then
        // retry the fast lane.
        if let Some(m) = memo {
            if i >= lo && i < hi && m.failed(bt.plain(state), i) {
                return Scan {
                    last,
                    stop: ScanStop::Failed(i),
                    fell_back,
                };
            }
        }
        if i >= n {
            return Scan {
                last,
                stop: ScanStop::EndOfInput { at: i, state },
                fell_back,
            };
        }
        fell_back |= bytes[i] >= 0x80;
        let Some((next, after)) = step_char(core, input, state, i) else {
            return Scan {
                last,
                stop: ScanStop::Dead(i),
                fell_back,
            };
        };
        state = next;
        i = after;
        let a = tab[state as usize];
        if a != 0 {
            last = Some(((a - 1) as usize, i));
        }
    }
}

/// One char-at-a-time step from premultiplied `state` at byte `i` (a
/// char boundary before the end): the byte table for ASCII, the
/// char-level DFA otherwise. Returns the next state and the offset past
/// the char, or `None` when the automaton dies on it.
#[inline]
fn step_char(core: &LexCore, input: &str, state: u32, i: usize) -> Option<(u32, usize)> {
    let bt = &core.bytes;
    let b = input.as_bytes()[i];
    if b < 0x80 {
        let next = bt.next[state as usize + bt.column_of[b as usize] as usize];
        (next != bt.dead).then_some((next, i + 1))
    } else {
        let ch = input[i..]
            .chars()
            .next()
            .expect("scan positions are char boundaries");
        core.spec
            .alphabet()
            .symbol_of_char(ch)
            .map(|sym| core.dfa.delta(bt.plain(state) as usize, sym))
            .filter(|&s| core.live[s])
            .map(|s| (bt.premultiply(s), i + ch.len_utf8()))
    }
}

/// The failed `(DFA state, byte position)` pairs one lex has found. A
/// pair is the automaton in that state with the input consumed up to
/// that position; it fails when no accepting state is reachable from
/// there before the automaton dies or the input ends. That depends only
/// on the state and the rest of the input, so a pair one scan found
/// failed stays failed for every later scan. (A pushed stream's input
/// has not ended, so its scans only ever find pairs failed by a death.)
///
/// The memo holds one window of positions, `base..base + rows`, at
/// `stride` bits (one per DFA state) per position. It stays empty, and
/// unallocated, until a scan backtracks. It is untrusted like the rest
/// of the driver: every lexeme is still re-matched by the certifier.
#[derive(Debug, Clone)]
pub(crate) struct MunchMemo {
    /// Byte position of the first row.
    base: usize,
    /// Positions held.
    rows: usize,
    /// Bits per row: the DFA's state count.
    stride: usize,
    /// Row-major, packed; every bit past `rows * stride` is zero.
    bits: Vec<u64>,
}

impl MunchMemo {
    /// Whether `(state, at)` is marked failed; `at` must be in the
    /// window.
    #[inline]
    fn failed(&self, state: u32, at: usize) -> bool {
        let k = (at - self.base) * self.stride + state as usize;
        self.bits[k / 64] >> (k % 64) & 1 != 0
    }

    /// Marks `(state, at)` failed; `at` must be in the window.
    #[inline]
    fn set(&mut self, state: u32, at: usize) {
        let k = (at - self.base) * self.stride + state as usize;
        self.bits[k / 64] |= 1 << (k % 64);
    }

    /// Marks every pair a backtracking `scan` from `start` passed
    /// through after its last accept, by re-walking the scan. The window
    /// first drops rows behind the accept (the next scan starts there)
    /// once they outnumber the rows still ahead, or when they would push
    /// the memo over `cap`.
    ///
    /// Returns the bytes the re-walk stepped. When the window would
    /// need more than `cap` bytes, marks nothing and returns the bytes
    /// it would need.
    fn mark(
        &mut self,
        core: &LexCore,
        input: &str,
        start: usize,
        scan: &Scan,
        cap: usize,
    ) -> Result<usize, usize> {
        let (_, from) = scan.last.expect("a backtracking scan has an accept");
        let stop = scan.stop_at();
        let hit = matches!(scan.stop, ScanStop::Failed(_));
        // The offset past the char at `at`: where one step lands.
        let next = |at: usize| at + input[at..].chars().next().map_or(0, char::len_utf8);
        if hit && next(from) == stop {
            // The overrun is the one char that reached a failed pair:
            // nothing new to mark.
            return Ok(0);
        }
        if self.base + self.rows <= from {
            // Every row held is behind the next token start: reuse the
            // allocation for a fresh window.
            self.base = from + 1;
            self.rows = 0;
            self.bits.clear();
        }
        let (stride, end) = (self.stride, (self.base + self.rows).max(stop + 1));
        let size = |base: usize| ((end - base) * stride).div_ceil(64) * 8;
        let behind = from.saturating_sub(self.base);
        if behind > 0 && (behind >= end - from || size(self.base) > cap) {
            self.drop_rows(behind);
        }
        let needed = size(self.base);
        if needed > cap {
            return Err(needed);
        }
        self.rows = end - self.base;
        self.bits.resize((self.rows * stride).div_ceil(64), 0);
        let (mut state, mut at) = (core.bytes.init, start);
        while at < stop {
            if hit && next(at) == stop {
                break;
            }
            (state, at) = step_char(core, input, state, at).expect("the scan's path was live");
            if at > from {
                self.set(core.bytes.plain(state), at);
            }
        }
        Ok(at - start)
    }

    /// Drops the first `k` rows: shifts the packed bits down by
    /// `k * stride`.
    fn drop_rows(&mut self, k: usize) {
        let shift = k * self.stride;
        self.bits.drain(..shift / 64);
        let off = shift % 64;
        if off > 0 {
            for w in 0..self.bits.len() {
                let carry = self.bits.get(w + 1).map_or(0, |&next| next << (64 - off));
                self.bits[w] = self.bits[w] >> off | carry;
            }
        }
        self.base += k;
        self.rows -= k;
        self.bits.truncate((self.rows * self.stride).div_ceil(64));
    }
}

impl LexAutomaton {
    /// One-shot maximal-munch lexing of `input`. The returned tokens
    /// tile the input exactly (skip-rule matches included); this is the
    /// raw driver — [`CertifiedLexer::lex`](crate::CertifiedLexer::lex)
    /// adds the certification pass.
    ///
    /// Unlike the serving iterators ([`LexAutomaton::raw_lexemes`],
    /// [`LexAutomaton::lexemes`]), it runs the munch memo with no cap
    /// and never sheds: the token list it returns already costs more
    /// per input byte than the memo's one bit per DFA state.
    ///
    /// # Errors
    ///
    /// [`LexError`] at the byte offset where no rule matches.
    pub fn lex_raw(&self, input: &str) -> Result<Vec<Token>, LexError> {
        Lexemes {
            raw: self.raw_lexemes_capped(input, usize::MAX),
        }
        .collect()
    }

    /// [`LexAutomaton::lex_raw`] on the original char-at-a-time loop
    /// (per-char `Alphabet` probe, explicit `live[]` check, no byte
    /// tables). Kept as the differential reference the property suites
    /// compare the byte-sliced scanner against, and as the benchmark
    /// baseline.
    ///
    /// # Errors
    ///
    /// As [`LexAutomaton::lex_raw`].
    pub fn lex_raw_charwise(&self, input: &str) -> Result<Vec<Token>, LexError> {
        self.lexemes_charwise(input).collect()
    }

    /// The char-at-a-time form of [`LexAutomaton::lexemes`] (see
    /// [`LexAutomaton::lex_raw_charwise`]).
    pub fn lexemes_charwise<'a>(&'a self, input: &'a str) -> CharwiseLexemes<'a> {
        CharwiseLexemes {
            core: self.core(),
            input,
            pos: 0,
            dead: false,
        }
    }

    /// Lexes `input` lazily into [`RawLexeme`]s — the allocation-free
    /// form of [`LexAutomaton::lexemes`] (no `String` per token). The
    /// fused lex→LR path runs on this.
    /// After the first `Err` the iterator is exhausted. It also ends
    /// early when its munch memo would outgrow [`MAX_MUNCH_MEMO_BYTES`];
    /// [`RawLexemes::shed`] then says so.
    pub fn raw_lexemes<'a>(&'a self, input: &'a str) -> RawLexemes<'a> {
        self.raw_lexemes_capped(input, MAX_MUNCH_MEMO_BYTES)
    }

    /// [`LexAutomaton::raw_lexemes`] with its memo capped at
    /// `memo_cap` bytes.
    pub(crate) fn raw_lexemes_capped<'a>(
        &'a self,
        input: &'a str,
        memo_cap: usize,
    ) -> RawLexemes<'a> {
        RawLexemes {
            core: self.core(),
            input,
            cursor: Cursor::new(self.core(), memo_cap),
            dead: false,
            tally: crate::probes::ScanTally::default(),
        }
    }

    /// Lexes `input` lazily, one maximal-munch lexeme per `next` call —
    /// the pull-mode form of [`LexAutomaton::lex_raw`].
    /// [`CertifiedLexer::lex`](crate::CertifiedLexer::lex) consumes this
    /// to certify each token as it is produced.
    /// After the first `Err` the iterator is exhausted; like
    /// [`RawLexemes`], it ends early on a shed ([`Lexemes::shed`]).
    pub fn lexemes<'a>(&'a self, input: &'a str) -> Lexemes<'a> {
        Lexemes {
            raw: self.raw_lexemes(input),
        }
    }

    /// Opens a push-mode lexer stream over this automaton.
    pub fn stream(&self) -> LexStream {
        LexStream {
            core: self.core().clone(),
            input: String::new(),
            cursor: Cursor::new(self.core(), usize::MAX),
            dead: None,
        }
    }
}

/// Where a maximal-munch pass stands in its input: the settled
/// boundary, the scan of the token after it so far, and the memo of
/// failed pairs. One-shot passes and push streams both advance through
/// [`Cursor::settle`].
#[derive(Debug, Clone)]
struct Cursor {
    /// Byte offset of the next token start: every byte before it is
    /// settled.
    pos: usize,
    /// The scan of the token at `pos` as far as it has run, when it ran
    /// out of input alive; `None` when nothing of the token has been
    /// scanned yet.
    open: Option<Scan>,
    /// Tokens the last scan cut in its fast lane, not handed out yet.
    burst: Burst,
    /// The scan that ended the last burst, judged once the burst is
    /// handed out.
    held: Option<Scan>,
    /// Failed `(state, position)` pairs found by earlier scans.
    memo: MunchMemo,
    /// The memo's cap in bytes.
    memo_cap: usize,
    /// Set when the memo's cap ended the pass.
    shed: Option<MunchMemoShed>,
}

impl Cursor {
    fn new(core: &LexCore, memo_cap: usize) -> Cursor {
        Cursor {
            pos: 0,
            open: None,
            burst: Burst::new(),
            held: None,
            memo: MunchMemo {
                base: 0,
                rows: 0,
                stride: core.dfa.num_states(),
                bits: Vec::new(),
            },
            memo_cap,
            shed: None,
        }
    }

    /// The shared settle step: resumes the open scan over `input` and
    /// settles the next token, if `input` decides it. `input` extends
    /// the text of every earlier call; `last_input` says it is all there
    /// is. Otherwise a scan that runs out of input stays open and the
    /// step returns `None`, as it does at the end of the input and when
    /// the memo would outgrow its cap (`shed` is then set).
    ///
    /// One scan can settle a burst of tokens (see [`scan_token`]): they
    /// come out one per call, and the scan's own stop is judged after
    /// them.
    #[inline]
    fn settle(
        &mut self,
        core: &LexCore,
        input: &str,
        last_input: bool,
        tally: &mut crate::probes::ScanTally,
    ) -> Option<Result<RawLexeme, LexError>> {
        if let Some((rule, end)) = self.burst.pop() {
            tally.cut_in_lane();
            return Some(Ok(self.cut(core, rule, end)));
        }
        let scan = match self.held.take() {
            Some(scan) => scan,
            None => {
                if self.pos >= input.len() {
                    return None;
                }
                let from = self
                    .open
                    .take()
                    .unwrap_or_else(|| Scan::start(core.bytes.init, self.pos));
                let scan = scan_token(core, input, from, Some(&self.memo), &mut self.burst);
                tally.scan(&scan, from.stop_at());
                if let Some((rule, end)) = self.burst.pop() {
                    self.held = Some(scan);
                    tally.cut_in_lane();
                    return Some(Ok(self.cut(core, rule, end)));
                }
                scan
            }
        };
        if !last_input && matches!(scan.stop, ScanStop::EndOfInput { .. }) {
            self.open = Some(scan);
            return None;
        }
        let Some((rule, end)) = scan.last else {
            return Some(Err(LexError {
                at: self.pos,
                found: input[self.pos..]
                    .chars()
                    .next()
                    .expect("a non-empty remainder has a first char"),
            }));
        };
        if scan.stop_at() > end {
            match self.memo.mark(core, input, self.pos, &scan, self.memo_cap) {
                Ok(rewalked) => tally.rewalked(rewalked),
                Err(needed) => {
                    self.shed = Some(MunchMemoShed {
                        at: self.pos,
                        needed,
                        cap: self.memo_cap,
                    });
                    crate::probes::note_munch_memo_shed();
                    return None;
                }
            }
        }
        tally.settled(&scan);
        Some(Ok(self.cut(core, rule, end)))
    }

    /// Settles the token from `pos` to `end` as a lexeme of `rule`.
    #[inline]
    fn cut(&mut self, core: &LexCore, rule: usize, end: usize) -> RawLexeme {
        let span = Span {
            start: self.pos,
            end,
        };
        self.pos = end;
        RawLexeme {
            rule,
            span,
            sym: core.spec.token_symbol(rule),
        }
    }

    /// Runs [`Cursor::settle`] until `input` decides no more tokens,
    /// appending each as a [`Token`] to `out`; stops at a lexical error.
    /// The memo must be uncapped.
    fn settle_into(
        &mut self,
        core: &LexCore,
        input: &str,
        last_input: bool,
        out: &mut Vec<Token>,
    ) -> Result<(), LexError> {
        let mut tally = crate::probes::ScanTally::default();
        while let Some(lexeme) = self.settle(core, input, last_input, &mut tally) {
            out.push(lexeme?.to_token(input));
        }
        debug_assert!(self.shed.is_none(), "an uncapped memo never sheds");
        Ok(())
    }
}

/// A lazy maximal-munch pass over a borrowed input: each `next` runs the
/// byte-sliced scanner from the current byte cursor to the next
/// last-accept boundary and yields that lexeme as a [`RawLexeme`]
/// (see [`LexAutomaton::raw_lexemes`]).
///
/// The pass owns the munch memo that keeps it linear (see the module
/// docs). When a backtrack would push the memo over its cap, the pass
/// ends without judging the rest of the input: `next` returns `None`
/// before the input is tiled, and [`RawLexemes::shed`] reports why.
#[derive(Debug)]
pub struct RawLexemes<'a> {
    core: &'a LexCore,
    input: &'a str,
    cursor: Cursor,
    /// Set after an `Err` or a shed: the pass has ended.
    dead: bool,
    /// Scan-probe accumulator, flushed to the process-wide probes when
    /// the iterator is dropped.
    tally: crate::probes::ScanTally,
}

impl RawLexemes<'_> {
    /// `Some` once the pass has ended because its munch memo would have
    /// outgrown its cap. The lexemes yielded before are sound, but they
    /// do not tile the input.
    pub fn shed(&self) -> Option<MunchMemoShed> {
        self.cursor.shed
    }
}

impl Iterator for RawLexemes<'_> {
    type Item = Result<RawLexeme, LexError>;

    #[inline]
    fn next(&mut self) -> Option<Result<RawLexeme, LexError>> {
        if self.dead {
            return None;
        }
        let step = self
            .cursor
            .settle(self.core, self.input, true, &mut self.tally);
        if !matches!(step, Some(Ok(_))) {
            self.dead = true;
        }
        step
    }
}

/// The [`Token`]-materializing form of [`RawLexemes`] (see
/// [`LexAutomaton::lexemes`]).
#[derive(Debug)]
pub struct Lexemes<'a> {
    raw: RawLexemes<'a>,
}

impl Lexemes<'_> {
    /// As [`RawLexemes::shed`].
    pub fn shed(&self) -> Option<MunchMemoShed> {
        self.raw.shed()
    }
}

impl Iterator for Lexemes<'_> {
    type Item = Result<Token, LexError>;

    #[inline]
    fn next(&mut self) -> Option<Result<Token, LexError>> {
        let input = self.raw.input;
        Some(self.raw.next()?.map(|l| l.to_token(input)))
    }
}

/// The original char-at-a-time maximal-munch pass, kept verbatim as the
/// differential reference for the byte-sliced scanner (see
/// [`LexAutomaton::lexemes_charwise`]).
#[derive(Debug)]
pub struct CharwiseLexemes<'a> {
    core: &'a LexCore,
    input: &'a str,
    /// Byte offset of the next token start.
    pos: usize,
    dead: bool,
}

impl Iterator for CharwiseLexemes<'_> {
    type Item = Result<Token, LexError>;

    fn next(&mut self) -> Option<Result<Token, LexError>> {
        if self.dead || self.pos >= self.input.len() {
            return None;
        }
        let core = self.core;
        let sigma = core.spec.alphabet();
        let mut state = core.dfa.init();
        let mut last: Option<(usize, usize)> = None; // (rule, byte end)
        let mut first: Option<char> = None;
        for (off, ch) in self.input[self.pos..].char_indices() {
            if first.is_none() {
                first = Some(ch);
            }
            let Some(sym) = sigma.symbol_of_char(ch) else {
                break;
            };
            let next = core.dfa.delta(state, sym);
            if !core.live[next] {
                break;
            }
            state = next;
            if let Some(rule) = core.dfa.accept_tag(state) {
                last = Some((rule, self.pos + off + ch.len_utf8()));
            }
        }
        match last {
            None => {
                self.dead = true;
                Some(Err(LexError {
                    at: self.pos,
                    found: first.expect("a non-empty remainder has a first char"),
                }))
            }
            Some((rule, end)) => {
                let span = Span {
                    start: self.pos,
                    end,
                };
                let text = self.input[self.pos..end].to_owned();
                self.pos = end;
                Some(Ok(Token {
                    rule,
                    text,
                    span,
                    sym: core.spec.token_symbol(rule),
                }))
            }
        }
    }
}

/// A push-mode incremental lexer: text in, tokens out as soon as their
/// right boundary is certain.
///
/// The stream keeps the pushed text, the settled boundary and the scan
/// of the token after it so far. Each push resumes that scan where the
/// previous push left it, through the same settle step (and the same
/// munch memo) as one-shot lexing: a token is emitted the moment the
/// automaton dies inside the pushed text, cut at its last accept, and
/// the next scan starts there. A scan that runs out of pushed text
/// stays open; [`LexStream::finish`] ends the input and settles it.
/// The full pushed text stays in [`LexStream::raw_input`], which is
/// what the certification pass of a certified pipeline re-checks the
/// emitted tokens against.
#[derive(Debug, Clone)]
pub struct LexStream {
    core: std::sync::Arc<LexCore>,
    /// Everything pushed so far (certification at `finish` re-checks
    /// the emitted tokens against exactly this).
    input: String,
    cursor: Cursor,
    /// The first lexical error; later pushes keep reporting it.
    dead: Option<LexError>,
}

impl LexStream {
    /// The spec behind the stream.
    pub fn spec(&self) -> &LexSpec {
        &self.core.spec
    }

    /// Everything pushed so far.
    pub fn raw_input(&self) -> &str {
        &self.input
    }

    /// Number of characters pushed after the last settled boundary
    /// (zero once the stream is dead).
    pub fn pending_chars(&self) -> usize {
        match self.dead {
            Some(_) => 0,
            None => self.input[self.cursor.pos..].chars().count(),
        }
    }

    /// `false` once a lexical error has been hit.
    pub fn is_alive(&self) -> bool {
        self.dead.is_none()
    }

    /// The first lexical error, if the stream has died.
    pub fn error(&self) -> Option<&LexError> {
        self.dead.as_ref()
    }

    /// Consumes one character: [`LexStream::push_str`] of it.
    ///
    /// # Errors
    ///
    /// As [`LexStream::push_str`].
    pub fn push(&mut self, c: char) -> Result<Vec<Token>, LexError> {
        self.push_str(c.encode_utf8(&mut [0; 4]))
    }

    /// Consumes a string, returning the tokens whose right boundary it
    /// resolved (often none or one; backtracking can release several).
    /// How the text is split into pushes changes nothing: the tokens,
    /// errors and retained state are those of one push of the whole.
    ///
    /// # Errors
    ///
    /// [`LexError`] when no rule matches at a token start; the stream
    /// stays dead (and keeps returning the same error for every
    /// non-empty push) from then on. Tokens settled before the error
    /// are lost to the caller; [`LexStream::push_str_into`] keeps them.
    pub fn push_str(&mut self, s: &str) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        self.push_str_into(s, &mut out)?;
        Ok(out)
    }

    /// [`LexStream::push_str`] appending into a caller-provided buffer,
    /// so a loop feeding many slices can reuse one allocation. The
    /// stream records all of `s`, even past an error.
    ///
    /// # Errors
    ///
    /// As [`LexStream::push_str`]; every token settled before the
    /// error has been appended to `out`.
    pub fn push_str_into(&mut self, s: &str, out: &mut Vec<Token>) -> Result<(), LexError> {
        self.input.push_str(s);
        if let Some(e) = &self.dead {
            return if s.is_empty() { Ok(()) } else { Err(e.clone()) };
        }
        let settled = self.cursor.settle_into(&self.core, &self.input, false, out);
        if let Err(e) = &settled {
            self.dead = Some(e.clone());
        }
        settled
    }

    /// Ends the input, settling the tokens still open.
    ///
    /// # Errors
    ///
    /// [`LexError`] if the unsettled suffix does not resolve into
    /// complete tokens. Tokens settled before the error are lost to the
    /// caller; [`LexStream::finish_into`] keeps them.
    pub fn finish(self) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        self.finish_into(&mut out)?;
        Ok(out)
    }

    /// [`LexStream::finish`] appending into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// As [`LexStream::finish`]; every token settled before the error
    /// has been appended to `out`.
    pub fn finish_into(mut self, out: &mut Vec<Token>) -> Result<(), LexError> {
        if let Some(e) = self.dead {
            return Err(e);
        }
        self.cursor.settle_into(&self.core, &self.input, true, out)
    }

    /// What [`LexStream::finish`] *would* emit, without ending (or
    /// disturbing) the stream: the settle step runs on a copy of the
    /// open scan with an empty memo — it copies neither the accumulated
    /// input nor the stream's memo (whose window may still cover rows
    /// behind the settled boundary), so per-character acceptance probes
    /// cost the unsettled suffix, not the stream.
    ///
    /// # Errors
    ///
    /// [`LexError`] exactly when `finish` would fail.
    pub fn pending_flush(&self) -> Result<Vec<Token>, LexError> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        let mut probe = Cursor::new(&self.core, usize::MAX);
        probe.pos = self.cursor.pos;
        probe.open = self.cursor.open;
        let mut out = Vec::new();
        probe.settle_into(&self.core, &self.input, true, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LexSpecBuilder;
    use lambek_core::alphabet::Alphabet;

    fn arith_auto() -> LexAutomaton {
        let sigma = Alphabet::from_chars("0123456789+() ");
        let spec = LexSpecBuilder::new(sigma.clone())
            .token_re("(", crate::spec::literal(&sigma, "("))
            .unwrap()
            .token_re(")", crate::spec::literal(&sigma, ")"))
            .unwrap()
            .token("+", "+")
            .unwrap()
            .token_re(
                "NUM",
                crate::spec::plus(crate::spec::class(&sigma, "0123456789")),
            )
            .unwrap()
            .skip("WS", "  *")
            .unwrap()
            .build()
            .unwrap();
        LexAutomaton::compile(spec)
    }

    #[test]
    fn maximal_munch_takes_the_longest_number() {
        let auto = arith_auto();
        let tokens = auto.lex_raw("12+(345)").unwrap();
        let texts: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["12", "+", "(", "345", ")"]);
        assert_eq!(tokens[0].span, Span { start: 0, end: 2 });
        assert_eq!(tokens[3].span, Span { start: 4, end: 7 });
        let names: Vec<&str> = tokens
            .iter()
            .map(|t| auto.spec().rule_name(t.rule))
            .collect();
        assert_eq!(names, ["NUM", "+", "(", "NUM", ")"]);
    }

    #[test]
    fn skips_are_lexed_but_left_out_of_the_yield() {
        let auto = arith_auto();
        let tokens = auto.lex_raw("1 + 2").unwrap();
        assert_eq!(tokens.len(), 5, "two skips included in the tiling");
        let ts = TokenStream::from_tokens(tokens);
        assert_eq!(ts.yield_string().len(), 3, "NUM + NUM");
        assert_eq!(ts.yield_spans().len(), 3);
        assert_eq!(ts.yield_spans()[2], Span { start: 4, end: 5 });
        assert_eq!(ts.span_of_yield(3, 5), Span::empty(5));
    }

    #[test]
    fn lex_errors_carry_byte_offsets() {
        let auto = arith_auto();
        // 'x' is not even in the character alphabet.
        let err = auto.lex_raw("12+x3").unwrap_err();
        assert_eq!(err, LexError { at: 3, found: 'x' });
        assert!(format!("{err}").contains("byte 3"), "{err}");
        // Errors are byte (not char) offsets even after multi-byte
        // text… the alphabet is ASCII here, so spans are bytes anyway.
        let err2 = auto.lex_raw("×").unwrap_err();
        assert_eq!(err2.at, 0);
    }

    #[test]
    fn stream_agrees_with_one_shot_pointwise() {
        let auto = arith_auto();
        for input in ["12+(345)", "1 + 2", "", "((7))", "99 ", " 5"] {
            let oneshot = auto.lex_raw(input).unwrap();
            let mut stream = auto.stream();
            let mut streamed = Vec::new();
            for c in input.chars() {
                streamed.extend(stream.push(c).unwrap());
                assert!(
                    stream.pending_chars() <= input.len(),
                    "buffer stays bounded"
                );
            }
            streamed.extend(stream.finish().unwrap());
            assert_eq!(streamed, oneshot, "{input:?}");
        }
    }

    #[test]
    fn bulk_push_str_agrees_with_per_char_pushes() {
        let auto = arith_auto();
        for input in [
            "12+(345)",
            "1 + 2",
            "",
            "((7))",
            "99 ",
            " 5",
            "12+x3",
            "×",
            "1+",
            "12345678901234567890",
        ] {
            for chunk in [1usize, 2, 3, 5, input.len().max(1)] {
                let mut bulk = auto.stream();
                let mut charwise = auto.stream();
                let mut bulk_out = Vec::new();
                let mut char_out = Vec::new();
                let mut bulk_err = None;
                let mut char_err = None;
                let slices: Vec<&str> = {
                    let mut v = Vec::new();
                    let mut rest = input;
                    while !rest.is_empty() {
                        let mut cut = chunk.min(rest.len());
                        while !rest.is_char_boundary(cut) {
                            cut += 1;
                        }
                        v.push(&rest[..cut]);
                        rest = &rest[cut..];
                    }
                    v
                };
                for s in &slices {
                    if bulk_err.is_none() {
                        match bulk.push_str_into(s, &mut bulk_out) {
                            Ok(()) => {}
                            Err(e) => bulk_err = Some(e),
                        }
                    }
                    if char_err.is_none() {
                        for c in s.chars() {
                            match charwise.push(c) {
                                Ok(t) => char_out.extend(t),
                                Err(e) => {
                                    char_err = Some(e);
                                    break;
                                }
                            }
                        }
                    }
                }
                assert_eq!(bulk_err, char_err, "{input:?} chunk {chunk}");
                if bulk_err.is_none() {
                    assert_eq!(bulk_out, char_out, "{input:?} chunk {chunk}");
                    let boundary = |s: &LexStream| {
                        (
                            s.raw_input().to_owned(),
                            s.pending_chars(),
                            s.error().cloned(),
                        )
                    };
                    assert_eq!(
                        boundary(&bulk),
                        boundary(&charwise),
                        "{input:?} chunk {chunk}"
                    );
                    assert_eq!(
                        bulk.finish().unwrap(),
                        charwise.finish().unwrap(),
                        "{input:?} chunk {chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_push_str_on_a_dead_stream_reports_and_records_the_chunk() {
        let auto = arith_auto();
        let mut stream = auto.stream();
        let err = stream.push_str("1+x").unwrap_err();
        assert_eq!(err, LexError { at: 2, found: 'x' });
        assert!(!stream.is_alive());
        let before = stream.raw_input().to_owned();
        assert_eq!(stream.push_str("99").unwrap_err(), err);
        assert_eq!(
            stream.raw_input().len(),
            before.len() + 2,
            "a dead stream records the whole chunk of a failed push_str"
        );
        assert!(stream.push_str("").is_ok(), "empty pushes stay no-ops");
    }

    #[test]
    fn an_error_keeps_the_tokens_settled_before_it() {
        // `x` resolves the `+` before it turns out unlexable.
        let auto = arith_auto();
        let texts = |tokens: &[Token]| tokens.iter().map(|t| t.text.clone()).collect::<Vec<_>>();
        let mut out = Vec::new();
        let mut stream = auto.stream();
        let err = stream.push_str_into("1+x", &mut out).unwrap_err();
        assert_eq!(err, LexError { at: 2, found: 'x' });
        assert_eq!(texts(&out), ["1", "+"]);
        assert_eq!(stream.raw_input(), "1+x", "the whole push is recorded");
        // Char by char, the `+` settles in the push that dies.
        let mut stream = auto.stream();
        out.clear();
        for c in "1+".chars() {
            stream
                .push_str_into(c.encode_utf8(&mut [0; 4]), &mut out)
                .unwrap();
        }
        assert_eq!(stream.push_str_into("x", &mut out).unwrap_err(), err);
        assert_eq!(texts(&out), ["1", "+"]);
        // One-shot lexing yields the same tokens before its `Err`.
        let oneshot: Vec<_> = auto.lexemes("1+x").collect();
        assert_eq!(oneshot.len(), 3);
        assert_eq!(oneshot[2], Err(err));
        let settled: Vec<Token> = oneshot.into_iter().take(2).map(Result::unwrap).collect();
        assert_eq!(settled, out);
    }

    #[test]
    fn finish_into_keeps_the_tokens_settled_before_an_error() {
        // `ab` ends inside `ABC`: finishing backs off to `A`, then dies
        // at `b`.
        let sigma = Alphabet::from_chars("abc");
        let spec = LexSpecBuilder::new(sigma)
            .token("A", "a")
            .unwrap()
            .token("ABC", "abc")
            .unwrap()
            .build()
            .unwrap();
        let auto = LexAutomaton::compile(spec);
        let err = LexError { at: 1, found: 'b' };
        let mut stream = auto.stream();
        assert_eq!(stream.push_str("ab"), Ok(vec![]));
        assert_eq!(stream.clone().finish(), Err(err.clone()));
        let mut out = Vec::new();
        assert_eq!(stream.finish_into(&mut out), Err(err.clone()));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].text, "a");
        let oneshot: Vec<_> = auto.lexemes("ab").collect();
        assert_eq!(oneshot, [Ok(out[0].clone()), Err(err)]);
    }

    #[test]
    fn stream_buffers_only_the_pending_token() {
        let auto = arith_auto();
        let mut stream = auto.stream();
        assert!(stream.push('1').unwrap().is_empty(), "boundary unknown yet");
        assert!(stream.push('2').unwrap().is_empty());
        assert_eq!(stream.pending_chars(), 2);
        let out = stream.push('+').unwrap();
        assert_eq!(out.len(), 1, "the '+' resolved the number's boundary");
        assert_eq!(out[0].text, "12");
        assert_eq!(stream.pending_chars(), 1, "only '+' is buffered");
        let rest = stream.finish().unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].text, "+");
    }

    #[test]
    fn pending_flush_probes_without_disturbing() {
        let auto = arith_auto();
        let mut stream = auto.stream();
        stream.push('1').unwrap();
        stream.push('2').unwrap();
        let probe = stream.pending_flush().unwrap();
        assert_eq!(probe.len(), 1);
        assert_eq!(probe[0].text, "12");
        assert_eq!(stream.pending_chars(), 2, "probe leaves the stream alone");
        assert_eq!(stream.finish().unwrap(), probe, "finish agrees with it");
        // A dangling partial token probes as the same error finish gives.
        let sigma = Alphabet::from_chars("if");
        let spec = LexSpecBuilder::new(sigma)
            .token("IF", "if")
            .unwrap()
            .build()
            .unwrap();
        let auto = LexAutomaton::compile(spec);
        let mut stream = auto.stream();
        stream.push('i').unwrap();
        assert_eq!(
            stream.pending_flush().unwrap_err(),
            LexError { at: 0, found: 'i' }
        );
    }

    #[test]
    fn stream_errors_stick() {
        let auto = arith_auto();
        let mut stream = auto.stream();
        stream.push('7').unwrap();
        let err = stream.push('x').unwrap_err();
        assert_eq!(err.at, 1, "the number 7 lexes; 'x' starts a bad token");
        assert!(!stream.is_alive());
        assert_eq!(stream.push('8').unwrap_err(), err);
        assert_eq!(stream.raw_input(), "7x8");
        assert_eq!(stream.error(), Some(&err));
        assert_eq!(stream.finish().unwrap_err(), err);
    }

    #[test]
    fn finish_rejects_a_dangling_partial_token() {
        // "(" then nothing is fine; a lone "4" is fine; but a spec with
        // only multi-char tokens can dangle: keyword "if" with input
        // "i" must fail at finish.
        let sigma = Alphabet::from_chars("if");
        let spec = LexSpecBuilder::new(sigma)
            .token("IF", "if")
            .unwrap()
            .build()
            .unwrap();
        let auto = LexAutomaton::compile(spec);
        let mut stream = auto.stream();
        assert!(stream.push('i').unwrap().is_empty());
        let err = stream.finish().unwrap_err();
        assert_eq!(err, LexError { at: 0, found: 'i' });
    }

    #[test]
    fn backtracking_refeeds_the_overrun() {
        // Rules: AB = "ab", A = "a". Input "aab": munch tries "aa…",
        // dies, backtracks to "a", re-feeds "a", then matches "ab".
        let sigma = Alphabet::from_chars("ab");
        let spec = LexSpecBuilder::new(sigma)
            .token("AB", "ab")
            .unwrap()
            .token("A", "a")
            .unwrap()
            .build()
            .unwrap();
        let auto = LexAutomaton::compile(spec);
        let tokens = auto.lex_raw("aab").unwrap();
        let texts: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "ab"]);
        // And the stream form agrees.
        let mut stream = auto.stream();
        let mut streamed = Vec::new();
        for c in "aab".chars() {
            streamed.extend(stream.push(c).unwrap());
        }
        streamed.extend(stream.finish().unwrap());
        assert_eq!(streamed, tokens);
    }

    /// `A = a`, `AB = a*b`: on `a`ⁿ every token's scan would run to the
    /// end of the input without the memo.
    fn munch_auto() -> LexAutomaton {
        let spec = LexSpecBuilder::new(Alphabet::from_chars("ab"))
            .token("A", "a")
            .unwrap()
            .token("AB", "a*b")
            .unwrap()
            .build()
            .unwrap();
        LexAutomaton::compile(spec)
    }

    #[test]
    fn a_memo_over_its_cap_sheds_without_judging_the_input() {
        let auto = munch_auto();
        let input = "a".repeat(1000);
        let before = crate::probes::snapshot().munch_memo_sheds;
        let mut lexemes = auto.raw_lexemes_capped(&input, 64);
        assert!(
            lexemes.next().is_none(),
            "the first backtrack needs ~500 bytes"
        );
        let shed = lexemes.shed().expect("a structured shed");
        assert_eq!((shed.at, shed.cap), (0, 64));
        assert!(shed.needed > 64, "{shed}");
        assert!(shed.to_string().contains("64-byte cap"), "{shed}");
        assert!(lexemes.next().is_none(), "a shed pass stays ended");
        assert!(crate::probes::snapshot().munch_memo_sheds > before);
        // Under the real cap the same input lexes, one `A` per byte.
        let mut lexemes = auto.raw_lexemes(&input);
        assert_eq!(
            lexemes
                .by_ref()
                .map(|l| l.unwrap().span.len())
                .sum::<usize>(),
            1000
        );
        assert_eq!(lexemes.shed(), None);
    }

    #[test]
    fn sliding_backtracks_drop_rows_behind_the_cursor() {
        // `A = a`, `AAB = aab`: on `a`ⁿ each token overruns by one char,
        // so the window slides one row per token and stays a few rows
        // long, far under a 16-byte cap (the whole input would need 50
        // times that).
        let spec = LexSpecBuilder::new(Alphabet::from_chars("ab"))
            .token("A", "a")
            .unwrap()
            .token("AAB", "aab")
            .unwrap()
            .build()
            .unwrap();
        let auto = LexAutomaton::compile(spec);
        for input in ["a".repeat(200), format!("{}b", "a".repeat(199))] {
            let got: Result<Vec<Token>, LexError> = Lexemes {
                raw: auto.raw_lexemes_capped(&input, 16),
            }
            .collect();
            assert_eq!(got, auto.lex_raw_charwise(&input), "{input:?}");
        }
    }

    #[test]
    fn dropping_rows_keeps_every_mark_ahead() {
        // A 5-bit stride, so most drops shift across word boundaries.
        let marked = |state: u32, at: usize| (at * 7 + state as usize * 3).is_multiple_of(4);
        for k in [1, 3, 13, 64, 70, 99] {
            let mut memo = MunchMemo {
                base: 10,
                rows: 100,
                stride: 5,
                bits: vec![0; 500usize.div_ceil(64)],
            };
            for at in 10..110 {
                for state in (0..5).filter(|&q| marked(q, at)) {
                    memo.set(state, at);
                }
            }
            memo.drop_rows(k);
            assert_eq!((memo.base, memo.rows), (10 + k, 100 - k));
            assert_eq!(memo.bits.len(), ((100 - k) * 5).div_ceil(64));
            for at in memo.base..memo.base + memo.rows {
                for state in 0..5 {
                    assert_eq!(memo.failed(state, at), marked(state, at), "k {k}, {at}");
                }
            }
            let tail = (memo.rows * 5) % 64;
            if tail > 0 {
                assert_eq!(
                    memo.bits.last().unwrap() >> tail,
                    0,
                    "k {k}: stale tail bits"
                );
            }
        }
    }

    // How each fast-lane run can stop. Every case checks the lexemes
    // against the charwise reference and pins the pass's probe tally:
    // scan bytes, fast-lane tokens, fallback tokens, backtracks.

    /// One-shot lexes `input`, checks it against `lex_raw_charwise` and
    /// returns the pass's tally.
    fn one_shot_counts(auto: &LexAutomaton, input: &str) -> [u64; 4] {
        let mut raw = auto.raw_lexemes(input);
        let got: Result<Vec<Token>, LexError> =
            raw.by_ref().map(|l| l.map(|l| l.to_token(input))).collect();
        assert_eq!(got, auto.lex_raw_charwise(input), "{input:?}");
        raw.tally.counts()
    }

    /// Pushes `chunks` into a stream and finishes it, checks the tokens
    /// against `lex_raw_charwise` of the whole, and returns the tally.
    fn stream_counts(auto: &LexAutomaton, chunks: &[&str]) -> [u64; 4] {
        let mut stream = auto.stream();
        let mut tally = crate::probes::ScanTally::default();
        let mut out = Vec::new();
        for (k, chunk) in chunks.iter().enumerate() {
            stream.input.push_str(chunk);
            let last_input = k + 1 == chunks.len();
            let LexStream {
                core,
                input,
                cursor,
                ..
            } = &mut stream;
            while let Some(lexeme) = cursor.settle(core, input, last_input, &mut tally) {
                out.push(lexeme.unwrap().to_token(input));
            }
        }
        assert_eq!(Ok(out), auto.lex_raw_charwise(&chunks.concat()));
        tally.counts()
    }

    #[test]
    fn fast_lane_cuts_tokens_that_die_at_their_accept() {
        let auto = arith_auto();
        let input = "12+(345)+6789 + (1+2)+((3)) ";
        // One scan cuts every token that dies on the byte after it.
        let core = auto.core();
        let mut burst = Burst::new();
        let scan = scan_token(
            core,
            input,
            Scan::start(core.bytes.init, 0),
            None,
            &mut burst,
        );
        assert!(burst.len > 4, "{}", burst.len);
        assert_eq!(burst.cuts[..3], [(3, 2), (2, 3), (0, 4)], "12 + (");
        // The last 4 bytes are a tail the 8-byte lane does not take: the
        // scan ends on the `3` after `(` and hands that `(` over.
        assert_eq!((scan.last, scan.stop), (Some((0, 24)), ScanStop::Dead(24)));
        assert_eq!(one_shot_counts(&auto, input), [28, 22, 0, 0]);
    }

    #[test]
    fn fast_lane_hands_an_overrun_to_the_settle_step() {
        // `ab` overruns `A = a` by one byte and backtracks; the memo's
        // window then covers the next tokens.
        let spec = LexSpecBuilder::new(Alphabet::from_chars("abc"))
            .token("A", "a")
            .unwrap()
            .token("B", "b")
            .unwrap()
            .token("ABC", "abc")
            .unwrap()
            .build()
            .unwrap();
        let auto = LexAutomaton::compile(spec);
        assert_eq!(
            one_shot_counts(&auto, "abababababababababcabc"),
            [46, 18, 0, 8]
        );
    }

    #[test]
    fn fast_lane_steps_non_ascii_through_the_char_level_dfa() {
        let sigma = Alphabet::from_chars("abcxyz\u{e9}\u{3bb} ");
        let spec = LexSpecBuilder::new(sigma.clone())
            .token_re(
                "ID",
                crate::spec::plus(crate::spec::class(&sigma, "abcxyz\u{e9}")),
            )
            .unwrap()
            .token("L", "\u{3bb}")
            .unwrap()
            .skip("WS", "  *")
            .unwrap()
            .build()
            .unwrap();
        let auto = LexAutomaton::compile(spec);
        let input = "abca\u{e9}babc xyzxyzxyz \u{3bb}ab\u{e9} abcabcabc\u{3bb}\u{3bb} xyzabcxyzabc";
        assert_eq!(one_shot_counts(&auto, input), [54, 5, 7, 0]);
    }

    #[test]
    fn fast_lane_meets_the_memo_window() {
        // `a`s overrun into `AB = a*b` up to the `c`s: the tokens after
        // the first start inside the memo's window, and the run of `c`s
        // starts inside it and crosses its end into the fast lane.
        let spec = LexSpecBuilder::new(Alphabet::from_chars("abc"))
            .token("A", "a")
            .unwrap()
            .token("AB", "a*b")
            .unwrap()
            .token("C", "cc*")
            .unwrap()
            .build()
            .unwrap();
        let auto = LexAutomaton::compile(spec);
        let input = format!("{}{}a{}", "a".repeat(12), "c".repeat(20), "c".repeat(9));
        assert_eq!(one_shot_counts(&auto, &input), [75, 15, 0, 11]);
    }

    #[test]
    fn fast_lane_leaves_a_token_at_the_end_of_input_to_settle() {
        let auto = arith_auto();
        assert_eq!(
            one_shot_counts(&auto, "1+2+3+4+5+6+78901234567"),
            [23, 13, 0, 0]
        );
        assert_eq!(one_shot_counts(&auto, "(1)+(2)+(3)+4"), [13, 13, 0, 0]);
    }

    #[test]
    fn fast_lane_keeps_a_pushed_token_open_across_chunks() {
        let auto = arith_auto();
        let input = "12+(345)+6789 + (1+2)+((3)) + 4567890123";
        let cuts = |n: usize| -> Vec<&str> {
            let mut v = Vec::new();
            let mut rest = input;
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(n.min(rest.len()));
                v.push(head);
                rest = tail;
            }
            v
        };
        // Whole, in 5- and 11-byte chunks, and cut inside `+ 4567…`'s
        // number: the same lexemes and the same work.
        for chunks in [
            vec![input],
            cuts(5),
            cuts(11),
            vec![&input[..31], &input[31..33], &input[33..]],
        ] {
            assert_eq!(stream_counts(&auto, &chunks), [40, 25, 0, 0], "{chunks:?}");
        }
    }

    #[test]
    fn priority_breaks_equal_length_ties() {
        // "if" matches both IF and ID at length 2; IF is declared first.
        let sigma = Alphabet::from_chars("ifx");
        let spec = LexSpecBuilder::new(sigma)
            .token("IF", "if")
            .unwrap()
            .token("ID", "(i|f|x)(i|f|x)*")
            .unwrap()
            .build()
            .unwrap();
        let auto = LexAutomaton::compile(spec);
        let toks = auto.lex_raw("ififx").unwrap();
        let named: Vec<(&str, &str)> = toks
            .iter()
            .map(|t| (auto.spec().rule_name(t.rule), t.text.as_str()))
            .collect();
        // Maximal munch: "ififx" is one identifier (longest match wins
        // over priority — priority only breaks length ties).
        assert_eq!(named, [("ID", "ififx")]);
        let toks2 = auto.lex_raw("if").unwrap();
        let named2: Vec<&str> = toks2
            .iter()
            .map(|t| auto.spec().rule_name(t.rule))
            .collect();
        assert_eq!(named2, ["IF"], "equal length: the earlier rule wins");
    }
}
