//! Maximal munch stays linear on its worst case, one-shot and pushed.
//!
//! Against `A = a`, `AB = a*b`, every token of `a`ⁿ first runs `AB`'s
//! `a*` to the end of the input and then backtracks to `A`: a driver
//! without the failed-pair memo steps ~n²/2 bytes. This binary lexes
//! `a`ⁿ for growing n — in one pass, and through a push stream fed one
//! char at a time or in 64-byte chunks — and bounds the scanner's own
//! work probe (`LexProbes::scan_bytes`, which counts every byte the
//! driver steps, memo re-walks and resumed stream scans included), not
//! wall-clock time. The probes are process-wide, so it runs as its own
//! test binary with a single test.

use lambek_core::alphabet::Alphabet;
use lambek_lex::{probes, LexAutomaton, LexError, LexSpecBuilder, Token};

/// How the input reaches the lexer.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// `a`ⁿ through one `raw_lexemes` pass.
    OneShot,
    /// `a`ⁿ pushed one char at a time, then `finish`.
    PerChar,
    /// `a`ⁿ pushed in 64-byte chunks, then `finish`.
    Chunked,
    /// `a`ⁿ`c` pushed in 64-byte chunks; the stream dies at `c`.
    ChunkedDying,
    /// `a`ⁿ pushed in 64-byte chunks; only one `pending_flush` is
    /// measured.
    PendingFlush,
}

/// Pushes `input` into `stream` in 64-byte chunks.
fn push_chunks(
    stream: &mut lambek_lex::LexStream,
    input: &str,
    out: &mut Vec<Token>,
) -> Result<(), LexError> {
    for chunk in input.as_bytes().chunks(64) {
        let chunk = std::str::from_utf8(chunk).expect("ASCII input");
        stream.push_str_into(chunk, out)?;
    }
    Ok(())
}

/// Bytes stepped to lex `a`ⁿ as `feed` says, checking that it lexes as
/// n one-byte `A`s.
fn scan_work(auto: &LexAutomaton, n: usize, feed: Feed) -> u64 {
    let input = "a".repeat(n);
    let mut before = probes::snapshot().scan_bytes;
    let spans: Vec<usize> = match feed {
        Feed::OneShot => {
            let mut lexemes = auto.raw_lexemes(&input);
            let spans = (&mut lexemes)
                .map(|l| l.expect("every `a` lexes as `A`").span.len())
                .collect();
            assert_eq!(lexemes.shed(), None, "n = {n}");
            spans
        }
        Feed::PerChar => {
            let mut stream = auto.stream();
            for c in input.chars() {
                let settled = stream.push(c).expect("`a` lexes");
                assert!(settled.is_empty(), "n = {n}: the scan stays open");
            }
            let tokens = stream.finish().expect("every `a` lexes as `A`");
            tokens.iter().map(|t| t.span.len()).collect()
        }
        Feed::Chunked => {
            let mut stream = auto.stream();
            let mut out = Vec::new();
            push_chunks(&mut stream, &input, &mut out).expect("`a` lexes");
            assert!(out.is_empty(), "n = {n}: the scan stays open");
            out.extend(stream.finish().expect("every `a` lexes as `A`"));
            out.iter().map(|t| t.span.len()).collect()
        }
        Feed::ChunkedDying => {
            let mut stream = auto.stream();
            let mut out = Vec::new();
            let err = push_chunks(&mut stream, &format!("{input}c"), &mut out).unwrap_err();
            assert_eq!(err, LexError { at: n, found: 'c' }, "n = {n}");
            out.iter().map(|t| t.span.len()).collect()
        }
        Feed::PendingFlush => {
            let mut stream = auto.stream();
            push_chunks(&mut stream, &input, &mut Vec::new()).expect("`a` lexes");
            before = probes::snapshot().scan_bytes;
            let tokens = stream.pending_flush().expect("every `a` lexes as `A`");
            tokens.iter().map(|t| t.span.len()).collect()
        }
    };
    assert_eq!(spans, vec![1; n], "{feed:?}, n = {n}");
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
            let stream_ns: &[usize] = &[1_000, 10_000, 100_000];
            for (feed, ns) in [
                (Feed::OneShot, &[1_000usize, 10_000, 100_000, 1_000_000][..]),
                (Feed::PerChar, stream_ns),
                (Feed::Chunked, stream_ns),
                (Feed::ChunkedDying, stream_ns),
                (Feed::PendingFlush, stream_ns),
            ] {
                let mut prev: Option<u64> = None;
                // Ascending, so a quadratic driver fails at the smallest n.
                for &n in ns {
                    let work = scan_work(&auto, n, feed);
                    assert!(
                        work >= n as u64,
                        "{feed:?}, n = {n}: {work} bytes stepped, under one per input byte"
                    );
                    assert!(
                        work <= 6 * n as u64,
                        "{feed:?}, n = {n}: {work} bytes stepped, over 6 per input byte"
                    );
                    if let Some(prev) = prev {
                        assert!(
                            work <= 11 * prev,
                            "{feed:?}, n = {n}: work grew {work} / {prev} over a 10x step in n"
                        );
                    }
                    prev = Some(work);
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
