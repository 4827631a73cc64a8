//! Serializable stream sessions: the versioned byte format behind
//! [`StreamParser::snapshot`](crate::StreamParser::snapshot) and
//! [`Engine::resume`](crate::Engine::resume).
//!
//! A [`SessionState`] is a self-describing blob:
//!
//! ```text
//! "LBKS" | version u16 | spec fingerprint u64 | mode u8 | payload | checksum u64
//! ```
//!
//! all integers little-endian. The trailing checksum is FNV-1a-64 over
//! every preceding byte, so random corruption is detected *before* any
//! payload field is interpreted; the spec fingerprint
//! ([`PipelineSpec::session_fingerprint`](crate::PipelineSpec::session_fingerprint))
//! is process-independent, so a blob parked by one process resumes in
//! another — but only into a structurally identical pipeline.
//!
//! The blob is **untrusted input**. Nothing in it is taken at face
//! value: decoding is bounds-checked (a truncated or over-long blob is
//! [`SessionError::Corrupt`]), and the decoded state is then re-derived
//! through the actual compiled pipeline — the LR stack by replaying the
//! parked input through the certified driver (the parked stacks,
//! counters and trees must equal the replay's), lexer state by replaying
//! the unresolved suffix, tokens by a fresh incremental certifier. A
//! bogus blob can be *rejected* ([`SessionError::Invalid`]); it can
//! never produce a mis-certified stream.

use lambek_core::alphabet::{GString, Symbol};
use lambek_core::grammar::parse_tree::ParseTree;

use crate::EngineError;

/// Version stamp of the session wire format. Bumped on any layout
/// change; old blobs then fail with [`SessionError::Version`] instead
/// of being misread.
pub const SESSION_VERSION: u16 = 1;

/// Leading magic of every session blob.
const MAGIC: [u8; 4] = *b"LBKS";

/// Header length: magic + version + fingerprint + mode tag.
const HEADER_LEN: usize = 4 + 2 + 8 + 1;

/// A parked stream session: the serialized state of a
/// [`StreamParser`](crate::StreamParser), produced by
/// [`StreamParser::snapshot`](crate::StreamParser::snapshot) and
/// consumed by [`Engine::resume`](crate::Engine::resume).
///
/// The wrapper is deliberately transparent — the bytes can be written
/// to disk or shipped across processes ([`SessionState::as_bytes`] /
/// [`SessionState::from_bytes`]); all integrity and compatibility
/// checking happens at resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    bytes: Vec<u8>,
}

impl SessionState {
    /// The serialized form, checksum included.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the wrapper, yielding the serialized form.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Wraps bytes read back from storage. No validation happens here —
    /// damaged bytes surface as structured errors at
    /// [`Engine::resume`](crate::Engine::resume), never as panics.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> SessionState {
        SessionState {
            bytes: bytes.into(),
        }
    }

    /// Size of the blob in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` for a zero-length blob (always invalid to resume).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Why a [`SessionState`] could not be resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The blob is damaged: framing, checksum, or payload decoding
    /// failed. Detected before any state is interpreted.
    Corrupt(String),
    /// The blob was written by an incompatible wire-format version.
    Version {
        /// The version stamped in the blob.
        found: u16,
        /// The version this build reads ([`SESSION_VERSION`]).
        expected: u16,
    },
    /// The blob was parked from a structurally different pipeline spec.
    SpecMismatch {
        /// The fingerprint stamped in the blob.
        found: u64,
        /// The resuming spec's fingerprint.
        expected: u64,
    },
    /// The blob decoded, but its state failed re-validation against the
    /// compiled pipeline (inconsistent stacks, trees, tokens, …).
    Invalid(String),
    /// The stream cannot be parked or resumed at all (e.g. a faulted
    /// stream, or a blob whose mode the pipeline has no backend for).
    Unsupported(String),
    /// The pipeline itself failed to compile during resume.
    Engine(EngineError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Corrupt(m) => write!(f, "corrupt session blob: {m}"),
            SessionError::Version { found, expected } => write!(
                f,
                "session blob has wire-format version {found}, this build reads {expected}"
            ),
            SessionError::SpecMismatch { found, expected } => write!(
                f,
                "session blob was parked from a different pipeline \
                 (fingerprint {found:#018x}, resuming spec is {expected:#018x})"
            ),
            SessionError::Invalid(m) => write!(f, "session state failed re-validation: {m}"),
            SessionError::Unsupported(m) => write!(f, "session not supported: {m}"),
            SessionError::Engine(e) => write!(f, "pipeline failed to compile during resume: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Streaming 64-bit FNV-1a, used for both the blob checksum and the
/// spec fingerprint. Not cryptographic — it guards against accidental
/// corruption; *semantic* safety comes from the re-validation pass,
/// which holds even for deliberately forged blobs.
#[derive(Debug, Clone)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub(crate) fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of a byte slice.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Little-endian byte sink for payload encoding.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer::default()
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over an untrusted payload.
/// Every method fails with [`SessionError::Corrupt`] instead of
/// panicking on truncation.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SessionError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SessionError::Corrupt("payload truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SessionError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SessionError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SessionError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SessionError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length field about to drive a loop or allocation. Rejecting
    /// lengths beyond the remaining byte count caps what a forged blob
    /// can make the decoder allocate.
    pub(crate) fn len(&mut self) -> Result<usize, SessionError> {
        let v = self.u64()?;
        if v > (self.buf.len() - self.pos) as u64 {
            return Err(SessionError::Corrupt(format!(
                "length {v} exceeds the {} bytes remaining",
                self.buf.len() - self.pos
            )));
        }
        Ok(v as usize)
    }

    /// Length-prefixed UTF-8 string.
    pub(crate) fn string(&mut self) -> Result<String, SessionError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SessionError::Corrupt("string field is not UTF-8".into()))
    }

    /// Demands the payload was consumed exactly.
    pub(crate) fn finish(&self) -> Result<(), SessionError> {
        if self.pos != self.buf.len() {
            return Err(SessionError::Corrupt(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Frames a payload into a complete blob: header, payload, checksum.
pub(crate) fn seal(fingerprint: u64, mode: u8, payload: Writer) -> SessionState {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.buf.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SESSION_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.push(mode);
    out.extend_from_slice(&payload.buf);
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    SessionState { bytes: out }
}

/// Opens a blob: checksum first (so corruption is reported as such
/// regardless of which field the flipped bit landed in), then version,
/// then spec fingerprint. Returns the mode tag and a reader positioned
/// at the payload.
pub(crate) fn open(
    state: &SessionState,
    expected_fingerprint: u64,
) -> Result<(u8, Reader<'_>), SessionError> {
    let bytes = &state.bytes;
    if bytes.len() < HEADER_LEN + 8 {
        return Err(SessionError::Corrupt(format!(
            "blob is {} bytes, shorter than the {}-byte envelope",
            bytes.len(),
            HEADER_LEN + 8
        )));
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if fnv64(body) != stored {
        return Err(SessionError::Corrupt("checksum mismatch".into()));
    }
    if body[..4] != MAGIC {
        return Err(SessionError::Corrupt("bad magic".into()));
    }
    let version = u16::from_le_bytes(body[4..6].try_into().unwrap());
    if version != SESSION_VERSION {
        return Err(SessionError::Version {
            found: version,
            expected: SESSION_VERSION,
        });
    }
    let found = u64::from_le_bytes(body[6..14].try_into().unwrap());
    if found != expected_fingerprint {
        return Err(SessionError::SpecMismatch {
            found,
            expected: expected_fingerprint,
        });
    }
    let mode = body[14];
    Ok((
        mode,
        Reader {
            buf: &body[HEADER_LEN..],
            pos: 0,
        },
    ))
}

/// Encodes a token-level string: length + one `u16` symbol index each.
pub(crate) fn write_gstring(w: &mut Writer, g: &GString) {
    w.usize(g.len());
    for sym in g.iter() {
        w.u16(sym.index() as u16);
    }
}

/// Decodes a token-level string. Symbol indices are *not* checked
/// against an alphabet here — the caller validates them against the
/// pipeline it is resuming into.
pub(crate) fn read_gstring(r: &mut Reader<'_>) -> Result<GString, SessionError> {
    let n = r.len()?;
    let mut g = GString::with_capacity(n);
    for _ in 0..n {
        g.push(Symbol::from_index(r.u16()? as usize));
    }
    Ok(g)
}

/// Tree node tags of the wire format.
const TAG_CHAR: u8 = 0;
const TAG_UNIT: u8 = 1;
const TAG_PAIR: u8 = 2;
const TAG_INJ: u8 = 3;
const TAG_TUPLE: u8 = 4;
const TAG_TOP: u8 = 5;
const TAG_ROLL: u8 = 6;

/// Encodes a parse tree pre-order, iteratively — parked derivation
/// stacks can hold trees whose depth is the input length, so recursion
/// here would turn a long session into a stack overflow.
pub(crate) fn write_tree(w: &mut Writer, tree: &ParseTree) {
    let mut stack = vec![tree];
    while let Some(t) = stack.pop() {
        match t {
            ParseTree::Char(s) => {
                w.u8(TAG_CHAR);
                w.u16(s.index() as u16);
            }
            ParseTree::Unit => w.u8(TAG_UNIT),
            ParseTree::Pair(l, r) => {
                w.u8(TAG_PAIR);
                stack.push(r);
                stack.push(l);
            }
            ParseTree::Inj { index, tree } => {
                w.u8(TAG_INJ);
                w.usize(*index);
                stack.push(tree);
            }
            ParseTree::Tuple(parts) => {
                w.u8(TAG_TUPLE);
                w.usize(parts.len());
                for p in parts.iter().rev() {
                    stack.push(p);
                }
            }
            ParseTree::Top(g) => {
                w.u8(TAG_TOP);
                write_gstring(w, g);
            }
            ParseTree::Roll(inner) => {
                w.u8(TAG_ROLL);
                stack.push(inner);
            }
        }
    }
}

/// A pending parent during iterative tree decoding.
enum Frame {
    /// A pair waiting for its left child.
    PairLeft,
    /// A pair holding its left child, waiting for the right.
    PairRight(ParseTree),
    /// An injection waiting for its child.
    Inj(usize),
    /// A tuple collecting `len` children.
    Tuple { len: usize, parts: Vec<ParseTree> },
    /// A roll waiting for its child.
    Roll,
}

/// Decodes one parse tree, iteratively (see [`write_tree`]).
pub(crate) fn read_tree(r: &mut Reader<'_>) -> Result<ParseTree, SessionError> {
    let mut frames: Vec<Frame> = Vec::new();
    loop {
        let mut done = match r.u8()? {
            TAG_CHAR => Some(ParseTree::Char(Symbol::from_index(r.u16()? as usize))),
            TAG_UNIT => Some(ParseTree::Unit),
            TAG_PAIR => {
                frames.push(Frame::PairLeft);
                None
            }
            TAG_INJ => {
                frames.push(Frame::Inj(r.u64()? as usize));
                None
            }
            TAG_TUPLE => {
                let len = r.len()?;
                if len == 0 {
                    Some(ParseTree::Tuple(Vec::new()))
                } else {
                    frames.push(Frame::Tuple {
                        len,
                        parts: Vec::new(),
                    });
                    None
                }
            }
            TAG_TOP => Some(ParseTree::Top(read_gstring(r)?)),
            TAG_ROLL => {
                frames.push(Frame::Roll);
                None
            }
            t => return Err(SessionError::Corrupt(format!("unknown tree tag {t}"))),
        };
        // Bubble the completed subtree up through the waiting parents.
        while let Some(t) = done.take() {
            match frames.pop() {
                None => return Ok(t),
                Some(Frame::PairLeft) => {
                    frames.push(Frame::PairRight(t));
                    break;
                }
                Some(Frame::PairRight(l)) => done = Some(ParseTree::pair(l, t)),
                Some(Frame::Inj(index)) => done = Some(ParseTree::inj(index, t)),
                Some(Frame::Tuple { len, mut parts }) => {
                    parts.push(t);
                    if parts.len() == len {
                        done = Some(ParseTree::Tuple(parts));
                    } else {
                        frames.push(Frame::Tuple { len, parts });
                        break;
                    }
                }
                Some(Frame::Roll) => done = Some(ParseTree::Roll(Box::new(t))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    fn sample_tree() -> ParseTree {
        ParseTree::roll(ParseTree::inj(
            2,
            ParseTree::pair(
                ParseTree::Char(sym(1)),
                ParseTree::Tuple(vec![
                    ParseTree::Unit,
                    ParseTree::Top([sym(0), sym(3)].into_iter().collect()),
                    ParseTree::roll(ParseTree::Char(sym(7))),
                ]),
            ),
        ))
    }

    #[test]
    fn tree_codec_round_trips() {
        let tree = sample_tree();
        let mut w = Writer::new();
        write_tree(&mut w, &tree);
        let state = seal(42, 9, w);
        let (mode, mut r) = open(&state, 42).unwrap();
        assert_eq!(mode, 9);
        let back = read_tree(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, tree);
    }

    #[test]
    fn deep_trees_do_not_overflow_the_codec() {
        // Depth ~200k of Roll nesting: fine iteratively, fatal
        // recursively.
        let mut tree = ParseTree::Unit;
        for _ in 0..200_000 {
            tree = ParseTree::Roll(Box::new(tree));
        }
        let mut w = Writer::new();
        write_tree(&mut w, &tree);
        let state = seal(0, 0, w);
        let (_, mut r) = open(&state, 0).unwrap();
        let back = read_tree(&mut r).unwrap();
        // Compare the towers iteratively as well: derived `PartialEq`
        // recurses, and 200k frames would blow the test thread's stack
        // just as surely as a recursive codec. (Drop is iterative.)
        let (mut a, mut b, mut depth) = (&tree, &back, 0usize);
        loop {
            match (a, b) {
                (ParseTree::Roll(x), ParseTree::Roll(y)) => {
                    a = x;
                    b = y;
                    depth += 1;
                }
                (ParseTree::Unit, ParseTree::Unit) => break,
                (x, y) => panic!("towers diverge at depth {depth}: {x:?} vs {y:?}"),
            }
        }
        assert_eq!(depth, 200_000);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut w = Writer::new();
        write_gstring(&mut w, &[sym(0), sym(1), sym(2)].into_iter().collect());
        let state = seal(7, 1, w);
        let bytes = state.as_bytes().to_vec();
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let flipped = SessionState::from_bytes(bad);
            assert!(
                matches!(open(&flipped, 7), Err(SessionError::Corrupt(_))),
                "bit {bit} slipped through"
            );
        }
    }

    #[test]
    fn truncation_and_extension_are_corrupt() {
        let mut w = Writer::new();
        w.u64(99);
        let state = seal(1, 0, w);
        for cut in 0..state.len() {
            let t = SessionState::from_bytes(&state.as_bytes()[..cut]);
            assert!(
                matches!(open(&t, 1), Err(SessionError::Corrupt(_))),
                "{cut}"
            );
        }
        let mut longer = state.as_bytes().to_vec();
        longer.push(0);
        let longer = SessionState::from_bytes(longer);
        assert!(matches!(open(&longer, 1), Err(SessionError::Corrupt(_))));
    }

    #[test]
    fn version_and_fingerprint_mismatches_are_structured() {
        // Re-frame a valid payload under a bumped version: the checksum
        // is recomputed (this is not corruption, it is incompatibility).
        let state = seal(5, 0, Writer::new());
        let mut bytes = state.into_bytes();
        bytes.truncate(bytes.len() - 8);
        bytes[4..6].copy_from_slice(&(SESSION_VERSION + 1).to_le_bytes());
        let sum = fnv64(&bytes).to_le_bytes();
        bytes.extend_from_slice(&sum);
        match open(&SessionState::from_bytes(bytes), 5) {
            Err(SessionError::Version { found, expected }) => {
                assert_eq!(found, SESSION_VERSION + 1);
                assert_eq!(expected, SESSION_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        match open(&seal(5, 0, Writer::new()), 6) {
            Err(SessionError::SpecMismatch { found, expected }) => {
                assert_eq!((found, expected), (5, 6));
            }
            other => panic!("expected a spec mismatch, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_fields_are_rejected_not_allocated() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // a "length" no payload could back
        let state = seal(0, 0, w);
        let (_, mut r) = open(&state, 0).unwrap();
        assert!(matches!(r.len(), Err(SessionError::Corrupt(_))));
        let (_, mut r2) = open(&state, 0).unwrap();
        assert!(matches!(
            read_gstring(&mut r2),
            Err(SessionError::Corrupt(_))
        ));
    }
}
