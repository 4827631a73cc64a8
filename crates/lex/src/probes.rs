//! Process-global hot-path probes for the lexing layer.
//!
//! These are *throughput* counters, not per-request metrics: plain
//! relaxed `AtomicU64` statics, incremented by the scan drivers and the
//! certifier, readable at any time via [`snapshot`]. They are
//! process-wide (all lexers and engines in the process share them) and
//! monotone — the interesting quantities are deltas between snapshots.
//!
//! Cost discipline: the per-byte scanner loop is never touched. Scan
//! drivers accumulate into a stack-local tally (the crate-private
//! `ScanTally`) and flush it to
//! the statics once per driver call (or iterator drop), so the probe
//! cost is a handful of `fetch_add`s per *lex run*, not per byte or per
//! token. The certifier likewise counts in its own field and adds the
//! total once, when it drops: its table walk never writes shared
//! memory.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::driver::Scan;

pub(crate) static SCAN_BYTES: AtomicU64 = AtomicU64::new(0);
pub(crate) static FAST_LANE_TOKENS: AtomicU64 = AtomicU64::new(0);
pub(crate) static FALLBACK_TOKENS: AtomicU64 = AtomicU64::new(0);
pub(crate) static BACKTRACKS: AtomicU64 = AtomicU64::new(0);
static MUNCH_MEMO_SHEDS: AtomicU64 = AtomicU64::new(0);
static CERTIFIED_LEXEMES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the process-wide lexing probes (see the
/// module docs for what is and is not counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LexProbes {
    /// Bytes stepped by the byte-sliced scanner, lookahead and the
    /// munch memo's re-walks of backtracking scans included (this
    /// measures scan *work*, not input size). One-shot passes, stream
    /// pushes and stream flushes all count; a stream's scan that is
    /// resumed by a later push counts only the bytes that push steps.
    pub scan_bytes: u64,
    /// Lexemes whose scan stayed entirely in the ASCII fast lane.
    pub fast_lane_tokens: u64,
    /// Lexemes whose scan dropped to the char-level fallback at least
    /// once (non-ASCII input).
    pub fallback_tokens: u64,
    /// Maximal-munch backtracks: scans that consumed lookahead past
    /// the token boundary they settled on.
    pub backtracks: u64,
    /// One-shot lexes shed because their maximal-munch memo would have
    /// outgrown its cap.
    pub munch_memo_sheds: u64,
    /// Lexemes the incremental certifier passed, each by one walk of
    /// its rule's eager derivative table.
    pub certified_lexemes: u64,
}

/// Reads all lexing probes (relaxed; counters are individually exact,
/// mutually unsynchronized).
pub fn snapshot() -> LexProbes {
    LexProbes {
        scan_bytes: SCAN_BYTES.load(Ordering::Relaxed),
        fast_lane_tokens: FAST_LANE_TOKENS.load(Ordering::Relaxed),
        fallback_tokens: FALLBACK_TOKENS.load(Ordering::Relaxed),
        backtracks: BACKTRACKS.load(Ordering::Relaxed),
        munch_memo_sheds: MUNCH_MEMO_SHEDS.load(Ordering::Relaxed),
        certified_lexemes: CERTIFIED_LEXEMES.load(Ordering::Relaxed),
    }
}

/// Adds one certifier's count of certified lexemes.
pub(crate) fn note_certified(lexemes: usize) {
    if lexemes > 0 {
        CERTIFIED_LEXEMES.fetch_add(lexemes as u64, Ordering::Relaxed);
    }
}

/// Counts one lex shed by its munch memo's cap.
pub(crate) fn note_munch_memo_shed() {
    MUNCH_MEMO_SHEDS.fetch_add(1, Ordering::Relaxed);
}

/// A stack-local accumulator the scan drivers batch probe updates in;
/// flushed to the global statics on drop, so every driver exit path
/// (including `?`) publishes exactly once.
#[derive(Debug, Default)]
pub(crate) struct ScanTally {
    bytes: u64,
    fast: u64,
    fallback: u64,
    backtracks: u64,
}

impl ScanTally {
    /// Accounts the bytes one `scan_token` read, starting (or
    /// resuming) at byte `start`.
    #[inline]
    pub(crate) fn scan(&mut self, scan: &Scan, start: usize) {
        self.bytes += (scan.stop_at() - start) as u64;
    }

    /// Accounts the bytes the munch memo re-walked to mark an overrun.
    #[inline]
    pub(crate) fn rewalked(&mut self, bytes: usize) {
        self.bytes += bytes as u64;
    }

    /// Accounts one token the fast lane cut at its last accept without
    /// leaving its loop: a fast-lane token, no backtrack.
    #[inline]
    pub(crate) fn cut_in_lane(&mut self) {
        self.fast += 1;
    }

    /// Accounts one token *settled* at the scan's last accept — called
    /// only when the driver actually cuts there (a stream's scan that
    /// runs out of pushed text stays open and must not call this).
    #[inline]
    pub(crate) fn settled(&mut self, scan: &Scan) {
        if scan.fell_back {
            self.fallback += 1;
        } else {
            self.fast += 1;
        }
        if let Some((_, end)) = scan.last {
            if scan.stop_at() > end {
                self.backtracks += 1;
            }
        }
    }
}

impl Drop for ScanTally {
    fn drop(&mut self) {
        if self.bytes > 0 {
            SCAN_BYTES.fetch_add(self.bytes, Ordering::Relaxed);
        }
        if self.fast > 0 {
            FAST_LANE_TOKENS.fetch_add(self.fast, Ordering::Relaxed);
        }
        if self.fallback > 0 {
            FALLBACK_TOKENS.fetch_add(self.fallback, Ordering::Relaxed);
        }
        if self.backtracks > 0 {
            BACKTRACKS.fetch_add(self.backtracks, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
impl ScanTally {
    /// The tally so far: scan bytes, fast-lane tokens, fallback tokens,
    /// backtracks.
    pub(crate) fn counts(&self) -> [u64; 4] {
        [self.bytes, self.fast, self.fallback, self.backtracks]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ScanStop;

    #[test]
    fn tally_classifies_scans() {
        let before = snapshot();
        {
            let mut t = ScanTally::default();
            // Clean fast-lane token: accepted at 4, died at 4.
            let clean = Scan {
                last: Some((0, 4)),
                stop: ScanStop::Dead(4),
                fell_back: false,
            };
            t.scan(&clean, 0);
            t.settled(&clean);
            // Backtracking fallback token: accepted at 6, died at 9.
            let overrun = Scan {
                last: Some((1, 6)),
                stop: ScanStop::Dead(9),
                fell_back: true,
            };
            t.scan(&overrun, 4);
            t.settled(&overrun);
            // Pending tail: no accept yet, ran out of input — bytes
            // only, no token.
            t.scan(
                &Scan {
                    last: None,
                    stop: ScanStop::EndOfInput { at: 10, state: 0 },
                    fell_back: false,
                },
                6,
            );
        }
        let after = snapshot();
        assert_eq!(after.scan_bytes - before.scan_bytes, 4 + 5 + 4);
        assert_eq!(after.fast_lane_tokens - before.fast_lane_tokens, 1);
        assert_eq!(after.fallback_tokens - before.fallback_tokens, 1);
        assert_eq!(after.backtracks - before.backtracks, 1);
    }
}
