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
//! A session is an input log. A parked parse is fully determined by the
//! pipeline and the input pushed so far, so the version-2 payload
//! ([`SESSION_VERSION`]) is that input and nothing else:
//!
//! ```text
//! mode 0 (DFA), 1 (LR):  count u64 | symbol index u16 × count
//! mode 2 (lexed):        length u64 | UTF-8 raw text
//! ```
//!
//! Resume opens a fresh stream and pushes the input through the live
//! path. The blob is **untrusted input**, and that replay is the whole
//! check: decoding is bounds-checked (a truncated or over-long payload
//! is [`SessionError::Corrupt`]); any input that decodes is something a
//! client could have pushed, and the certified drivers decide what it
//! means. A blob can be *rejected* ([`SessionError::Invalid`]); it can
//! never produce a mis-certified stream.
//!
//! Version 1 is read-only. Its payloads start with the same input field
//! (modes 0 and 2), or carry the LR state stack, partial-derivation
//! trees, claims and step counters before it (mode 1), which resume
//! skips without building them. Whatever a v1 payload holds after its
//! input is ignored: nothing installs it.

use lambek_core::alphabet::{GString, Symbol};

use crate::EngineError;

/// Version stamp of the session wire format that snapshots write.
/// Bumped on any layout change. Resume also reads version 1 (see the
/// module docs); any other version fails with [`SessionError::Version`]
/// instead of being misread.
pub const SESSION_VERSION: u16 = 2;

/// The version before blobs became input logs: read, never written.
const V1: u16 = 1;

/// Mode tag of a DFA session.
pub(crate) const MODE_DFA: u8 = 0;
/// Mode tag of an LR session.
pub(crate) const MODE_LR: u8 = 1;
/// Mode tag of a lexed-LR session.
pub(crate) const MODE_LEXED: u8 = 2;

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
    /// The blob decoded, but does not resume into this pipeline: its
    /// mode is not the pipeline's stream mode, a parked symbol is
    /// outside the pipeline's alphabet, or replaying the parked input
    /// recorded a certification fault (a driver bug, not a client
    /// error).
    Invalid(String),
    /// The stream cannot be parked: it has recorded a certification
    /// fault.
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
            SessionError::Invalid(m) => write!(f, "session does not resume here: {m}"),
            SessionError::Unsupported(m) => write!(f, "session not supported: {m}"),
            SessionError::Engine(e) => write!(f, "pipeline failed to compile during resume: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Streaming 64-bit FNV-1a, used for both the blob checksum and the
/// spec fingerprint. Not cryptographic — it guards against accidental
/// corruption; *semantic* safety comes from replaying the parked input
/// through the certified drivers, which holds even for deliberately
/// forged blobs.
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
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer::default()
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Length-prefixed UTF-8 string.
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over an untrusted payload.
/// Every method fails with [`SessionError::Corrupt`] instead of
/// panicking on truncation.
#[derive(Debug)]
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The blob's wire-format version.
    version: u16,
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

    fn u8(&mut self) -> Result<u8, SessionError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SessionError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Skips `count` fields of `width` bytes each.
    fn skip(&mut self, count: usize, width: usize) -> Result<(), SessionError> {
        let n = count
            .checked_mul(width)
            .ok_or_else(|| SessionError::Corrupt("payload truncated".into()))?;
        self.take(n).map(|_| ())
    }

    fn u64(&mut self) -> Result<u64, SessionError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length field about to drive a loop or allocation. Rejecting
    /// lengths beyond the remaining byte count caps what a forged blob
    /// can make the decoder allocate.
    fn len(&mut self) -> Result<usize, SessionError> {
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
    fn string(&mut self) -> Result<String, SessionError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SessionError::Corrupt("string field is not UTF-8".into()))
    }

    /// Demands the payload was consumed exactly.
    fn finish(&self) -> Result<(), SessionError> {
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
fn seal(fingerprint: u64, mode: u8, payload: Writer) -> SessionState {
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
/// regardless of which field the flipped bit landed in), then version
/// (2, or the read-only 1), then spec fingerprint. Returns the mode tag
/// and a reader positioned at the payload.
fn open(state: &SessionState, expected_fingerprint: u64) -> Result<(u8, Reader<'_>), SessionError> {
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
    if version != SESSION_VERSION && version != V1 {
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
            version,
        },
    ))
}

/// Encodes a token-level string: length + one `u16` symbol index each.
fn write_gstring(w: &mut Writer, g: &GString) {
    w.usize(g.len());
    for sym in g.iter() {
        w.u16(sym.index() as u16);
    }
}

/// Decodes a token-level string. Symbol indices are *not* checked
/// against an alphabet here — the caller validates them against the
/// pipeline it is resuming into.
fn read_gstring(r: &mut Reader<'_>) -> Result<GString, SessionError> {
    let n = r.len()?;
    let mut g = GString::with_capacity(n);
    for _ in 0..n {
        g.push(Symbol::from_index(r.u16()? as usize));
    }
    Ok(g)
}

/// The input a session parks: what its stream was pushed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ParkedInput {
    /// A DFA or LR session: the pushed symbols.
    Symbols(GString),
    /// A lexed session: the pushed raw text.
    Text(String),
}

/// Seals a version-2 blob parking a DFA or LR stream (`mode` 0 or 1)
/// that was pushed `input`.
pub(crate) fn park_symbols(fingerprint: u64, mode: u8, input: &GString) -> SessionState {
    let mut w = Writer::new();
    write_gstring(&mut w, input);
    seal(fingerprint, mode, w)
}

/// Seals a version-2 blob parking a lexed stream that was pushed `text`.
pub(crate) fn park_text(fingerprint: u64, text: &str) -> SessionState {
    let mut w = Writer::new();
    w.str(text);
    seal(fingerprint, MODE_LEXED, w)
}

/// Opens a blob parked from the pipeline with `expected_fingerprint`
/// (see [`open`]) and decodes its mode tag and parked input.
pub(crate) fn unpark(
    state: &SessionState,
    expected_fingerprint: u64,
) -> Result<(u8, ParkedInput), SessionError> {
    let (mode, r) = open(state, expected_fingerprint)?;
    Ok((mode, read_input(r, mode)?))
}

/// Decodes the parked input of a payload with mode tag `mode` (see the
/// module docs for both versions' layouts). A version-2 payload must be
/// consumed exactly; a version-1 payload's fields after the input are
/// not read.
fn read_input(mut r: Reader<'_>, mode: u8) -> Result<ParkedInput, SessionError> {
    let input = match mode {
        MODE_DFA => ParkedInput::Symbols(read_gstring(&mut r)?),
        MODE_LR => {
            if r.version == V1 {
                skip_v1_lr_state(&mut r)?;
            }
            ParkedInput::Symbols(read_gstring(&mut r)?)
        }
        MODE_LEXED => ParkedInput::Text(r.string()?),
        t => {
            return Err(SessionError::Corrupt(format!(
                "unknown session mode tag {t}"
            )))
        }
    };
    if r.version == SESSION_VERSION {
        r.finish()?;
    }
    Ok(input)
}

/// Tree node tags of the version-1 wire format.
const TAG_CHAR: u8 = 0;
const TAG_UNIT: u8 = 1;
const TAG_PAIR: u8 = 2;
const TAG_INJ: u8 = 3;
const TAG_TUPLE: u8 = 4;
const TAG_TOP: u8 = 5;
const TAG_ROLL: u8 = 6;

/// Skips what a version-1 LR payload carries before its input: the
/// state stack (`u32` each), the partial-derivation trees, the claims
/// (a tag byte and a `u64` each) and the shift and reduce counters.
fn skip_v1_lr_state(r: &mut Reader<'_>) -> Result<(), SessionError> {
    let states = r.len()?;
    r.skip(states, 4)?;
    skip_v1_trees(r)?;
    let claims = r.len()?;
    r.skip(claims, 9)?;
    r.skip(2, 8)
}

/// Skips a count-prefixed sequence of version-1 pre-order trees. A
/// count of subtrees still to skip stands in for recursion, so a tree
/// as deep as its input skips in constant stack; every node consumes its
/// tag byte, so a forged count runs into the end of the payload, not
/// into a long loop. Builds nothing.
fn skip_v1_trees(r: &mut Reader<'_>) -> Result<(), SessionError> {
    let mut pending = r.len()?;
    while pending > 0 {
        pending -= 1;
        match r.u8()? {
            TAG_CHAR => r.skip(1, 2)?,
            TAG_UNIT => {}
            TAG_PAIR => pending += 2,
            TAG_INJ => {
                r.skip(1, 8)?;
                pending += 1;
            }
            TAG_TUPLE => pending += r.len()?,
            TAG_TOP => {
                let n = r.len()?;
                r.skip(n, 2)?;
            }
            TAG_ROLL => pending += 1,
            t => return Err(SessionError::Corrupt(format!("unknown tree tag {t}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    /// Re-frames a sealed blob under another wire-format version, with
    /// a valid checksum.
    fn reseal_as(state: SessionState, version: u16) -> SessionState {
        let mut bytes = state.into_bytes();
        bytes.truncate(bytes.len() - 8);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let sum = fnv64(&bytes).to_le_bytes();
        bytes.extend_from_slice(&sum);
        SessionState::from_bytes(bytes)
    }

    /// A v1 LR payload laid out as the v1 encoder wrote it: two states,
    /// one tree of `depth` nested rolls around a unit, one claim, the
    /// step counters, `input`, and no rejection.
    fn v1_lr_payload(depth: usize, input: &GString) -> Writer {
        let mut w = Writer::new();
        w.usize(2);
        w.buf.extend_from_slice(&[0; 8]);
        w.usize(1);
        w.buf.extend(std::iter::repeat_n(TAG_ROLL, depth));
        w.buf.push(TAG_UNIT);
        w.usize(1);
        w.buf.push(1);
        w.u64(0);
        w.usize(input.len());
        w.usize(depth);
        write_gstring(&mut w, input);
        w.buf.push(0);
        w
    }

    #[test]
    fn a_deep_v1_lr_tree_skips_on_a_small_stack() {
        let input: GString = [sym(0), sym(1)].into_iter().collect();
        let state = reseal_as(seal(3, MODE_LR, v1_lr_payload(200_000, &input)), V1);
        let decoded = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || unpark(&state, 3))
            .unwrap()
            .join()
            .expect("no stack overflow on a 256 KiB stack");
        assert_eq!(decoded, Ok((MODE_LR, ParkedInput::Symbols(input))));
    }

    #[test]
    fn a_v1_lr_payload_cut_inside_its_trees_is_corrupt() {
        let input: GString = [sym(0), sym(1)].into_iter().collect();
        let full = v1_lr_payload(200_000, &input);
        // The state count and stack (16 bytes), the tree count (8), and
        // half of the rolls.
        let mut cut = Writer::new();
        cut.buf.extend_from_slice(&full.buf[..16 + 8 + 100_000]);
        let state = reseal_as(seal(3, MODE_LR, cut), V1);
        assert!(matches!(unpark(&state, 3), Err(SessionError::Corrupt(_))));
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
