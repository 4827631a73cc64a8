//! Maximal munch stays linear on its worst case.
//!
//! Against `A = a`, `AB = a*b`, every token of `a`ⁿ first runs `AB`'s
//! `a*` to the end of the input and then backtracks to `A`: a driver
//! without the failed-pair memo steps ~n²/2 bytes. This binary lexes
//! `a`ⁿ for growing n and bounds the scanner's own work probe
//! (`LexProbes::scan_bytes`, which counts every byte the driver steps,
//! memo re-walks included), not wall-clock time. The probes are
//! process-wide, so it runs as its own test binary with a single test.

use lambek_core::alphabet::Alphabet;
use lambek_lex::{probes, LexAutomaton, LexSpecBuilder};

/// Bytes stepped to lex `a`ⁿ in one pass.
fn scan_work(auto: &LexAutomaton, n: usize) -> u64 {
    let input = "a".repeat(n);
    let before = probes::snapshot().scan_bytes;
    let mut lexemes = auto.raw_lexemes(&input);
    let mut count = 0;
    for lexeme in &mut lexemes {
        let lexeme = lexeme.expect("every `a` lexes as `A`");
        assert_eq!(lexeme.span.len(), 1, "n = {n}");
        count += 1;
    }
    assert_eq!(lexemes.shed(), None, "n = {n}");
    drop(lexemes);
    assert_eq!(count, n);
    probes::snapshot().scan_bytes - before
}

#[test]
fn backtracking_munch_work_grows_linearly() {
    let spec = LexSpecBuilder::new(Alphabet::from_chars("ab"))
        .token("A", "a")
        .unwrap()
        .token("AB", "a*b")
        .unwrap()
        .build()
        .unwrap();
    let auto = LexAutomaton::compile(spec);
    // A small stack: the driver must not recurse per token or per byte.
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let mut prev: Option<u64> = None;
            // Ascending, so a quadratic driver fails at the smallest n.
            for n in [1_000usize, 10_000, 100_000, 1_000_000] {
                let work = scan_work(&auto, n);
                assert!(
                    work <= 6 * n as u64,
                    "n = {n}: {work} bytes stepped, over 6 per input byte"
                );
                if let Some(prev) = prev {
                    assert!(
                        work <= 11 * prev,
                        "n = {n}: work grew {work} / {prev} over a 10x step in n"
                    );
                }
                prev = Some(work);
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
