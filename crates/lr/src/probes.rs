//! Process-global hot-path probes for the LR driver.
//!
//! Like `lambek_lex::probes`, these are process-wide relaxed atomic
//! throughput counters, not per-request metrics: monotone, read via
//! [`snapshot`], meaningful as deltas. The driver's machine
//! accumulates its own plain-integer step counters and flushes the
//! deltas to these statics only when a feed ends in a terminal step
//! (accept, reject, fault), so the shift/reduce hot loop never touches
//! shared memory. The counts of a stream that is abandoned mid-input
//! (never finished, never rejected) are not flushed.

use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) static SHIFTS: AtomicU64 = AtomicU64::new(0);
pub(crate) static REDUCES: AtomicU64 = AtomicU64::new(0);
pub(crate) static CLAIMS_CHECKED: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the process-wide LR probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LrProbes {
    /// Terminals shifted by completed (accepted, rejected, or faulted)
    /// driver runs.
    pub shifts: u64,
    /// Reductions performed by completed driver runs.
    pub reduces: u64,
    /// Certification claims discharged (the RHS-claim sequence plus
    /// the logged tag and arity per certified reduction, the lone-start
    /// claim per accept). Zero for runs driven without certification
    /// tables.
    pub claims_checked: u64,
}

/// Reads all LR probes (relaxed; counters are individually exact,
/// mutually unsynchronized).
pub fn snapshot() -> LrProbes {
    LrProbes {
        shifts: SHIFTS.load(Ordering::Relaxed),
        reduces: REDUCES.load(Ordering::Relaxed),
        claims_checked: CLAIMS_CHECKED.load(Ordering::Relaxed),
    }
}
