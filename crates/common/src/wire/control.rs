//! Control-plane frames: plans (and their results) on the wire.
//!
//! The data plane ships tuple batches with the formats in
//! [`wire`](super); the *control* plane — a coordinator distributing
//! plan fragments to worker processes and collecting their outputs —
//! needs its own framing, because the two ends of a control connection
//! may be different builds of different versions. Every control frame
//! therefore leads with a magic/version header:
//!
//! ```text
//! frame := "PJCP"  u16-LE version  u8 kind  u32-LE payload length  payload
//! ```
//!
//! A reader that sees the wrong magic, an unsupported version, or an
//! unknown frame kind fails with a **typed** [`ControlError`] — never a
//! guess at the payload. Payload layouts are version-scoped: within
//! protocol version [`VERSION`], payloads are built from the fixed-width
//! little-endian primitives below ([`put_u64`], [`PayloadReader`], …)
//! plus the batch frame of the parent module for relation data.
//!
//! Frame kinds are deliberately few; the fragment payload itself (what a
//! worker needs to execute its share of a plan) is defined by the engine
//! on top of these primitives, keeping this module free of plan types.

use std::fmt;
use std::io::{Read, Write};

/// Magic bytes opening every control frame ("ParJoin Control Protocol").
pub const MAGIC: [u8; 4] = *b"PJCP";

/// Control protocol version this build speaks. Version 2 moved the
/// relation bodies inside `Fragment` and `OutputBatch` payloads onto the
/// parent module's one frame layout (version 1 used a second codec
/// without the flags byte); version 3 made the fragment's one option
/// byte a flags byte carrying `skew_resilient` and `group_count`;
/// version 4 names each atom's partition by content fingerprint, its
/// rows inline only when the worker does not hold it yet. An older peer
/// gets a typed [`ControlError::UnsupportedVersion`].
pub const VERSION: u16 = 4;

/// Fixed size of the frame header: magic, version, kind, payload length.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4;

/// Default ceiling on a control frame's payload (256 MiB). A fragment
/// carries a rank's seed partition of a relation the first time a
/// session names it, so such a fragment can be orders of magnitude
/// larger than a data-plane batch; every later one is the plan alone, a
/// few hundred bytes. An absurd length prefix is still better rejected
/// than allocated.
pub const DEFAULT_FRAME_LIMIT: u32 = 256 << 20;

/// Typed decode failures of the control protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// The stream does not open with the `PJCP` magic — the peer is not
    /// speaking the control protocol at all.
    BadMagic {
        /// The four bytes that arrived instead of the magic.
        got: [u8; 4],
    },
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion {
        /// Version announced by the peer.
        got: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The frame kind byte names no known kind in this version.
    UnknownKind(u8),
    /// The declared payload length exceeds the configured limit.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// Limit in force.
        limit: u32,
    },
    /// The stream ended inside a header or payload.
    Truncated(String),
    /// A structurally invalid payload (bad UTF-8, counts that disagree
    /// with the remaining bytes, trailing garbage).
    Malformed(String),
    /// An OS-level I/O failure on the control connection.
    Io(String),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::BadMagic { got } => {
                write!(
                    f,
                    "control frame does not start with PJCP magic (got {got:02x?})"
                )
            }
            ControlError::UnsupportedVersion { got, supported } => write!(
                f,
                "control protocol version {got} is not supported (this build speaks {supported})"
            ),
            ControlError::UnknownKind(k) => {
                write!(f, "unknown control frame kind {k:#04x}")
            }
            ControlError::Oversized { len, limit } => write!(
                f,
                "control frame declares a {len}-byte payload, above the {limit}-byte limit"
            ),
            ControlError::Truncated(m) => write!(f, "control stream truncated: {m}"),
            ControlError::Malformed(m) => write!(f, "malformed control payload: {m}"),
            ControlError::Io(m) => write!(f, "control connection I/O error: {m}"),
        }
    }
}

impl std::error::Error for ControlError {}

/// What a control frame carries. The numeric codes are wire-stable
/// within a protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Worker → coordinator: "I am up", carrying the worker's data-plane
    /// listener address.
    Ready,
    /// Coordinator → worker: one serialized plan fragment (spec, global
    /// plan decisions, and this rank's seeded partitions).
    Fragment,
    /// Worker → coordinator: one batch of this rank's output partition,
    /// encoded with the parent module's batch format.
    OutputBatch,
    /// Worker → coordinator: end of output, carrying the worker's
    /// execution metrics for reconciliation.
    OutputDone,
    /// Either direction: a typed failure rendered as text; the sender is
    /// about to close the connection.
    Error,
    /// Coordinator → worker: orderly shutdown request.
    Shutdown,
}

impl FrameKind {
    /// Wire code of this kind.
    pub fn code(self) -> u8 {
        match self {
            FrameKind::Ready => 1,
            FrameKind::Fragment => 2,
            FrameKind::OutputBatch => 3,
            FrameKind::OutputDone => 4,
            FrameKind::Error => 5,
            FrameKind::Shutdown => 6,
        }
    }

    /// Decodes a wire code.
    ///
    /// # Errors
    /// [`ControlError::UnknownKind`] for codes this version does not define.
    pub fn from_code(code: u8) -> Result<FrameKind, ControlError> {
        Ok(match code {
            1 => FrameKind::Ready,
            2 => FrameKind::Fragment,
            3 => FrameKind::OutputBatch,
            4 => FrameKind::OutputDone,
            5 => FrameKind::Error,
            6 => FrameKind::Shutdown,
            other => return Err(ControlError::UnknownKind(other)),
        })
    }
}

/// Writes one framed control message (header + payload) and flushes.
///
/// # Errors
/// [`ControlError::Oversized`] when the payload exceeds
/// [`DEFAULT_FRAME_LIMIT`], [`ControlError::Io`] on socket failure.
pub fn write_frame<W: Write>(
    w: &mut W,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), ControlError> {
    let len = u32::try_from(payload.len()).map_err(|_| ControlError::Oversized {
        len: u32::MAX,
        limit: DEFAULT_FRAME_LIMIT,
    })?;
    if len > DEFAULT_FRAME_LIMIT {
        return Err(ControlError::Oversized {
            len,
            limit: DEFAULT_FRAME_LIMIT,
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = kind.code();
    header[7..11].copy_from_slice(&len.to_le_bytes());
    let io = |e: std::io::Error| ControlError::Io(e.to_string());
    w.write_all(&header).map_err(io)?;
    w.write_all(payload).map_err(io)?;
    w.flush().map_err(io)
}

/// Reads one framed control message, validating magic, version, kind
/// and length before allocating the payload.
///
/// # Errors
/// Every [`ControlError`] variant: bad magic, an unsupported version
/// (the typed unknown-version error the protocol guarantees), an
/// unknown kind, an oversized or truncated frame, or socket failure.
pub fn read_frame<R: Read>(r: &mut R, limit: u32) -> Result<(FrameKind, Vec<u8>), ControlError> {
    let mut header = [0u8; HEADER_LEN];
    read_exactly(r, &mut header, "frame header")?;
    let mut got_magic = [0u8; 4];
    got_magic.copy_from_slice(&header[..4]);
    if got_magic != MAGIC {
        return Err(ControlError::BadMagic { got: got_magic });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(ControlError::UnsupportedVersion {
            got: version,
            supported: VERSION,
        });
    }
    let kind = FrameKind::from_code(header[6])?;
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]);
    if len > limit {
        return Err(ControlError::Oversized { len, limit });
    }
    let mut payload = vec![0u8; len as usize];
    read_exactly(r, &mut payload, "frame payload")?;
    Ok((kind, payload))
}

/// `read_exact` with EINTR retries and typed truncation errors.
fn read_exactly<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), ControlError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(ControlError::Truncated(format!(
                    "stream closed {got} bytes into a {}-byte {what}",
                    buf.len()
                )));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {} // EINTR: retry
            Err(e) => return Err(ControlError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Appends a `u8` to a payload under construction.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u128` (a content fingerprint).
pub fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends `Some`/`None` as a presence byte followed by the value.
pub fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
        None => put_u8(buf, 0),
    }
}

/// Sequential reader over a control payload, with typed errors on
/// truncation and a [`done`](Self::done) check against trailing bytes.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    /// [`ControlError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ControlError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ControlError::Truncated(format!(
                "payload needs {n} more bytes at offset {}, but only {} remain",
                self.pos,
                self.buf.len() - self.pos
            ))),
        }
    }

    /// Reads the `u32` element count of a list whose elements encode to
    /// at least `min_bytes` each.
    ///
    /// # Errors
    /// [`ControlError::Malformed`] when the remaining payload cannot
    /// hold that many: a length-prefix bomb dies before anything is sized.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, ControlError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_bytes) > remaining {
            return Err(ControlError::Malformed(format!(
                "a list of {n} elements of {min_bytes}+ bytes each, but {remaining} bytes remain"
            )));
        }
        Ok(n)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    /// [`ControlError::Truncated`] at end of payload.
    pub fn u8(&mut self) -> Result<u8, ControlError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`ControlError::Truncated`] at end of payload.
    pub fn u32(&mut self) -> Result<u32, ControlError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`ControlError::Truncated`] at end of payload.
    pub fn u64(&mut self) -> Result<u64, ControlError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    /// [`ControlError::Truncated`] at end of payload.
    pub fn u128(&mut self) -> Result<u128, ControlError> {
        let mut b = [0u8; 16];
        b.copy_from_slice(self.take(16)?);
        Ok(u128::from_le_bytes(b))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`ControlError::Truncated`] / [`ControlError::Malformed`] on a
    /// short or non-UTF-8 payload.
    pub fn str(&mut self) -> Result<String, ControlError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| ControlError::Malformed(format!("non-UTF-8 string: {e}")))
    }

    /// Reads a presence byte followed by a `u64` when present.
    ///
    /// # Errors
    /// [`ControlError::Truncated`] / [`ControlError::Malformed`] on a
    /// short payload or an invalid presence byte.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, ControlError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(ControlError::Malformed(format!(
                "invalid option tag {other} (expected 0 or 1)"
            ))),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    /// [`ControlError::Malformed`] when trailing bytes remain.
    pub fn done(&self) -> Result<(), ControlError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ControlError::Malformed(format!(
                "{} trailing byte(s) after the last field",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Fragment, b"hello plan").expect("write");
        write_frame(&mut wire, FrameKind::OutputDone, b"").expect("write empty");
        let mut r = &wire[..];
        let (kind, payload) = read_frame(&mut r, DEFAULT_FRAME_LIMIT).expect("read 1");
        assert_eq!(kind, FrameKind::Fragment);
        assert_eq!(payload, b"hello plan");
        let (kind, payload) = read_frame(&mut r, DEFAULT_FRAME_LIMIT).expect("read 2");
        assert_eq!(kind, FrameKind::OutputDone);
        assert!(payload.is_empty());
        assert!(r.is_empty());
    }

    #[test]
    fn unknown_version_is_a_typed_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Ready, b"x").expect("write");
        wire[4..6].copy_from_slice(&7u16.to_le_bytes());
        let err = read_frame(&mut &wire[..], DEFAULT_FRAME_LIMIT);
        assert_eq!(
            err,
            Err(ControlError::UnsupportedVersion {
                got: 7,
                supported: VERSION
            })
        );
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let wire = b"HTTP/1.1 200 OK\r\n".to_vec();
        let err = read_frame(&mut &wire[..], DEFAULT_FRAME_LIMIT);
        assert_eq!(err, Err(ControlError::BadMagic { got: *b"HTTP" }));
    }

    #[test]
    fn unknown_kind_is_a_typed_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Ready, b"").expect("write");
        wire[6] = 0xEE;
        let err = read_frame(&mut &wire[..], DEFAULT_FRAME_LIMIT);
        assert_eq!(err, Err(ControlError::UnknownKind(0xEE)));
    }

    #[test]
    fn oversized_and_truncated_frames_are_typed_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Fragment, &[0u8; 64]).expect("write");
        let err = read_frame(&mut &wire[..], 16);
        assert_eq!(err, Err(ControlError::Oversized { len: 64, limit: 16 }));
        let cut = &wire[..HEADER_LEN + 10];
        let err = read_frame(&mut &cut[..], DEFAULT_FRAME_LIMIT);
        assert!(
            matches!(err, Err(ControlError::Truncated(ref m)) if m.contains("payload")),
            "short payload must be typed: {err:?}"
        );
    }

    #[test]
    fn payload_primitives_round_trip_and_reject_trailing_bytes() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 3);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX - 1);
        put_u128(&mut buf, u128::MAX - 7);
        put_str(&mut buf, "twitter → q1");
        put_opt_u64(&mut buf, Some(42));
        put_opt_u64(&mut buf, None);
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u8().expect("u8"), 3);
        assert_eq!(r.u32().expect("u32"), 70_000);
        assert_eq!(r.u64().expect("u64"), u64::MAX - 1);
        assert_eq!(r.u128().expect("u128"), u128::MAX - 7);
        assert_eq!(r.str().expect("str"), "twitter → q1");
        assert_eq!(r.opt_u64().expect("some"), Some(42));
        assert_eq!(r.opt_u64().expect("none"), None);
        r.done().expect("fully consumed");

        let mut r = PayloadReader::new(&buf);
        let _ = r.u8().expect("u8");
        assert!(
            matches!(r.done(), Err(ControlError::Malformed(_))),
            "trailing bytes must be rejected"
        );
        let mut r = PayloadReader::new(&[1]);
        assert!(matches!(r.u64(), Err(ControlError::Truncated(_))));
        let mut r = PayloadReader::new(&[1; 15]);
        assert!(matches!(r.u128(), Err(ControlError::Truncated(_))));
    }
}
