//! Seeded input generation and the output oracle.
//!
//! The generator, never the program under test, decides what each
//! request must answer: every document carries its expected outcome
//! (accept with a yield-token count, or a lexical rejection at a known
//! byte offset), and [`check`] compares the engine's report with it.

use lambek_engine::{EngineError, StrParseReport, StrReportOutcome};

/// SplitMix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn letters(&mut self, n: u64, out: &mut String) {
        for _ in 0..n {
            out.push((b'a' + self.below(26) as u8) as char);
        }
    }
}

/// What the program must answer for one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Accept { tokens: usize },
    RejectLex { at: usize },
}

#[derive(Clone)]
pub struct Doc {
    pub text: String,
    pub expect: Expect,
}

/// Compares one report with the generator's answer.
pub fn check(report: &StrParseReport, expect: Expect) -> Result<(), String> {
    match (&report.outcome, expect) {
        (StrReportOutcome::Accepted { tokens, .. }, Expect::Accept { tokens: want })
            if *tokens == want =>
        {
            Ok(())
        }
        (StrReportOutcome::RejectedLex { at, .. }, Expect::RejectLex { at: want })
            if *at == want =>
        {
            Ok(())
        }
        (got, want) => {
            let got: String = format!("{got:?}").chars().take(200).collect();
            Err(format!("expected {want:?}, got {got}"))
        }
    }
}

/// Checks a whole batch answer: no `Err`, one report per document, and
/// every report as the generator expects.
pub fn check_all(
    answer: Result<Vec<StrParseReport>, EngineError>,
    docs: &[&Doc],
) -> Result<(), String> {
    let reports = answer.map_err(|e| format!("engine error: {e}"))?;
    if reports.len() != docs.len() {
        return Err(format!(
            "{} reports for {} documents",
            reports.len(),
            docs.len()
        ));
    }
    reports
        .iter()
        .zip(docs)
        .try_for_each(|(r, d)| check(r, d.expect))
}

/// Text under construction, with its yield-token count.
#[derive(Default)]
pub struct Out {
    pub text: String,
    pub tokens: usize,
    /// Offsets of every comma token: the error-injection sites.
    pub commas: Vec<usize>,
}

impl Out {
    pub fn tok(&mut self, t: &str) {
        self.text.push_str(t);
        self.tokens += 1;
    }

    pub fn comma(&mut self) {
        self.commas.push(self.text.len());
        self.tok(",");
    }

    pub fn ws(&mut self, w: &str) {
        self.text.push_str(w);
    }
}
