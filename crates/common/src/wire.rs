//! On-wire encoding of tuple batches — the one relation codec.
//!
//! Every place a relation crosses a process or thread boundary uses the
//! same frame: the streaming exchange's batches, the partitions inside a
//! plan fragment and the `OutputBatch`es a worker returns to its
//! coordinator. One encoder ([`encode_vectored`]), one decoder
//! ([`decode_frame_into`]), one payload, one hostile-byte surface:
//!
//! ```text
//! flags  varint(arity)  varint(row_count)  payload
//! payload:              row_count × arity × u64-LE values
//! ```
//!
//! The payload is the sender's flat row-major value slice verbatim. The
//! layout exists for scatter/gather sends: the header fits a
//! [`VECTORED_HEADER_MAX`]-byte stack buffer ([`vectored_header`]) and
//! the payload *is* the relation arena's `&[u64]` slice as little-endian
//! words, so a streaming sender writes two borrowed slices and never
//! materializes an owned encode buffer. The one-byte flags field leads
//! so a future payload kind is a new bit a receiver can refuse before
//! reading the counts; this build defines none, so any set bit is a
//! decode error.
//!
//! Header counts use LEB128 varints (batches are usually small, so their
//! counts fit in one or two bytes) while column values stay fixed
//! eight-byte little-endian words: values are dictionary-encoded ids
//! spread across the full `u64` range, and fixed-width decode is a
//! straight `memcpy`. Every frame's size is therefore exactly
//! [`frame_bytes`] — the one number the analyzer's pre-flight, the
//! exchange's byte tallies and the fragment's length prefixes all use.
//!
//! A frame is self-delimiting only via its header — the caller frames
//! batches on the transport (length prefix for TCP and control frames,
//! one message per batch in process). Empty batches (zero rows) and
//! nullary rows (zero arity, boolean-query relations) round-trip exactly:
//! the explicit row count is what carries a nullary relation's
//! multiplicity.

pub mod control;

use crate::{Relation, Value};
use std::fmt;

/// A malformed byte sequence handed to [`decode_frame_into`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Appends `v` to `out` as a LEB128 varint (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint starting at `*pos`, advancing `*pos` past it.
///
/// # Errors
/// Returns [`WireError`] on truncated input or a varint longer than ten
/// bytes (which cannot encode a `u64`).
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    for shift in 0..10u32 {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(WireError("truncated varint".into()));
        };
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        // The tenth byte may only carry the final bit of a u64.
        if shift == 9 && byte > 0x01 {
            return Err(WireError("varint overflows u64".into()));
        }
        v |= low << (7 * shift);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(WireError("varint longer than 10 bytes".into()))
}

/// Which batch framing a runtime puts on the wire.
///
/// There is one: the enum (and the `wire_format` fields that carry it)
/// stays so a second framing would be a new variant, not a new axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireFormat {
    /// Scatter/gather layout: `flags varint(arity) varint(rows)` header
    /// plus the borrowed flat row slice.
    #[default]
    Vectored,
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireFormat::Vectored => write!(f, "vectored"),
        }
    }
}

/// Upper bound on an encoded vectored header: the flags byte plus two
/// ten-byte varints.
pub const VECTORED_HEADER_MAX: usize = 21;

/// An encoded vectored frame header on the stack. Senders write
/// [`VectoredHeader::as_bytes`] and then the payload slice — the
/// scatter/gather shape that keeps row bytes out of owned encode
/// buffers.
#[derive(Debug, Clone, Copy)]
pub struct VectoredHeader {
    buf: [u8; VECTORED_HEADER_MAX],
    len: usize,
}

impl VectoredHeader {
    /// The encoded header bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Encodes the `flags · varint(arity) · varint(rows)` header of a
/// vectored frame (no flag is defined, so the flags byte is zero).
pub fn vectored_header(arity: usize, rows: usize) -> VectoredHeader {
    let mut buf = [0u8; VECTORED_HEADER_MAX];
    let mut len = 1usize;
    for mut v in [arity as u64, rows as u64] {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf[len] = byte;
                len += 1;
                break;
            }
            buf[len] = byte | 0x80;
            len += 1;
        }
    }
    VectoredHeader { buf, len }
}

/// Bytes a `u64` occupies as a LEB128 varint (1–10).
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Exact on-wire size of a frame under `format`. The analyzer's
/// per-frame pre-flight and the fragment's relation length prefix both
/// use this — keep it in lockstep with the encoder
/// (`common/tests/props.rs` pins estimate == actual).
pub fn frame_bytes(format: WireFormat, arity: usize, rows: usize) -> u64 {
    match format {
        WireFormat::Vectored => {
            1 + varint_len(arity as u64) as u64
                + varint_len(rows as u64) as u64
                + (rows as u64) * (arity as u64) * 8
        }
    }
}

/// Encodes one frame (header + payload), appending to `out`: the
/// relation-batch encoder. Fragment partitions and coordinator
/// `OutputBatch`es are built with it; the streaming exchange puts the
/// same bytes on the wire without the owned buffer, by handing
/// [`vectored_header`] and the flat slice to the transport separately.
///
/// A frame has one payload, so `compressed` must be `false`; the
/// argument stays because the e2e benchmark harness
/// (`crates/bench/src/bin/e2e`) still passes it.
///
/// # Panics
/// Panics if `compressed` is set or `flat.len() != rows * arity`.
pub fn encode_vectored(
    arity: usize,
    rows: usize,
    flat: &[Value],
    compressed: bool,
    out: &mut Vec<u8>,
) {
    assert!(!compressed, "the wire frame has no compressed payload");
    assert_eq!(flat.len(), rows * arity, "flat buffer is not rows × arity");
    out.extend_from_slice(vectored_header(arity, rows).as_bytes());
    extend_le_words(out, flat);
}

/// Appends `values` to `out` as little-endian words: one resize, then
/// one pass of whole 8-byte slots, with no per-word growth check.
pub fn extend_le_words(out: &mut Vec<u8>, values: &[Value]) {
    let start = out.len();
    out.resize(start + values.len() * 8, 0);
    let (slots, _) = out[start..].as_chunks_mut::<8>();
    for (slot, &v) in slots.iter_mut().zip(values) {
        *slot = v.to_le_bytes();
    }
}

/// Decodes one frame under `format`, appending its rows to `rel`: the
/// relation-batch decoder. The bytes come from a peer, so arbitrary
/// input must (and does) fail typed without panicking or allocating
/// more than `8 × bytes.len()` bytes.
///
/// Returns the number of rows appended.
///
/// # Errors
/// Returns [`WireError`] on any set flag bit, a malformed header, a
/// truncated or over-long payload, a row count the payload cannot back,
/// or a batch arity that disagrees with `rel`.
pub fn decode_frame_into(
    format: WireFormat,
    bytes: &[u8],
    rel: &mut Relation,
) -> Result<usize, WireError> {
    let WireFormat::Vectored = format;
    let Some(&flags) = bytes.first() else {
        return Err(WireError("empty vectored frame".into()));
    };
    if flags != 0 {
        return Err(WireError(format!(
            "unknown vectored flag bits in {flags:#04x}"
        )));
    }
    let mut pos = 1usize;
    let arity = read_varint(bytes, &mut pos)?;
    let rows = read_varint(bytes, &mut pos)?;
    let arity = usize::try_from(arity).map_err(|_| WireError("arity overflow".into()))?;
    let rows = usize::try_from(rows).map_err(|_| WireError("row count overflow".into()))?;
    if arity != rel.arity() {
        return Err(WireError(format!(
            "batch arity {arity} does not match relation arity {}",
            rel.arity()
        )));
    }
    if arity == 0 {
        if pos != bytes.len() {
            return Err(WireError(format!(
                "nullary batch carries {} payload bytes",
                bytes.len() - pos
            )));
        }
        if rel.len().checked_add(rows).is_none() {
            return Err(WireError("nullary row count overflow".into()));
        }
        rel.push_nullary_rows(rows);
        return Ok(rows);
    }
    let expect = rows
        .checked_mul(arity)
        .and_then(|v| v.checked_mul(8))
        .ok_or_else(|| WireError("batch size overflow".into()))?;
    if bytes.len() - pos != expect {
        return Err(WireError(format!(
            "payload is {} bytes, expected {expect} for {rows} rows × {arity} cols",
            bytes.len() - pos
        )));
    }
    rel.push_rows_le_bytes(rows, &bytes[pos..]);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncated_errors() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 300);
        buf.pop();
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn varint_overlong_errors() {
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }

    fn vectored_round_trip(rel: &Relation) -> Relation {
        let mut buf = Vec::new();
        encode_vectored(rel.arity(), rel.len(), rel.raw(), false, &mut buf);
        let mut back = Relation::new(rel.arity());
        let n = decode_frame_into(WireFormat::Vectored, &buf, &mut back).unwrap();
        assert_eq!(n, rel.len());
        back
    }

    #[test]
    fn vectored_raw_round_trips() {
        let rel = Relation::from_rows(3, [[1u64, 2, 3], [u64::MAX, 0, 7]].iter());
        assert_eq!(vectored_round_trip(&rel), rel);
    }

    #[test]
    fn vectored_empty_and_nullary_round_trip() {
        let empty = Relation::new(4);
        assert_eq!(vectored_round_trip(&empty).len(), 0);
        let mut nullary = Relation::new(0);
        nullary.push_nullary_rows(5);
        let back = vectored_round_trip(&nullary);
        assert_eq!((back.arity(), back.len()), (0, 5));
    }

    #[test]
    fn vectored_header_matches_estimator() {
        for (arity, rows) in [(0usize, 0usize), (1, 1), (3, 127), (3, 128), (9, 100_000)] {
            let h = vectored_header(arity, rows);
            assert_eq!(
                h.as_bytes().len() as u64 + (rows as u64) * (arity as u64) * 8,
                frame_bytes(WireFormat::Vectored, arity, rows),
                "estimator disagrees with header at {arity}×{rows}"
            );
        }
    }

    #[test]
    fn varint_len_matches_encoder() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "varint_len wrong for {v}");
        }
    }

    #[test]
    fn every_flag_bit_is_rejected() {
        let rel = Relation::from_rows(1, [[7u64]].iter());
        let mut buf = Vec::new();
        encode_vectored(1, 1, rel.raw(), false, &mut buf);
        for bit in 0..8 {
            let mut flagged = buf.clone();
            flagged[0] = 1 << bit;
            let mut out = Relation::new(1);
            assert!(
                decode_frame_into(WireFormat::Vectored, &flagged, &mut out).is_err(),
                "flag bit {bit} decoded"
            );
            assert!(out.is_empty());
        }
    }

    #[test]
    fn vectored_truncation_rejected_at_every_cut() {
        let rel = Relation::from_rows(2, [[300u64, 2], [3, 400]].iter());
        let mut buf = Vec::new();
        encode_vectored(2, 2, rel.raw(), false, &mut buf);
        for cut in 0..buf.len() {
            let mut out = Relation::new(2);
            assert!(
                decode_frame_into(WireFormat::Vectored, &buf[..cut], &mut out).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn vectored_arity_mismatch_rejected() {
        let rel = Relation::from_rows(2, [[1u64, 2]].iter());
        let mut buf = Vec::new();
        encode_vectored(2, 1, rel.raw(), false, &mut buf);
        let mut wrong = Relation::new(3);
        assert!(decode_frame_into(WireFormat::Vectored, &buf, &mut wrong).is_err());
    }

    /// `00 01 <varint 2^42>`: a nine-byte frame claiming 2^42 one-column
    /// rows and carrying none. The payload-length check refuses it
    /// before anything is sized by the count.
    #[test]
    fn row_count_bomb_is_a_typed_error() {
        let mut frame = vec![0, 1];
        write_varint(&mut frame, 1 << 42);
        assert_eq!(frame.len(), 9);
        let mut out = Relation::new(1);
        let err = decode_frame_into(WireFormat::Vectored, &frame, &mut out);
        assert!(err.is_err(), "bomb frame decoded: {err:?}");
        assert!(out.is_empty());
    }

    /// Arity 4 with `u64::MAX / 4 + 2` rows: `rows × arity × 8` must be a
    /// checked multiply, not a wrap to a small payload size.
    #[test]
    fn row_count_overflow_is_a_typed_error() {
        let mut frame = vec![0, 4];
        write_varint(&mut frame, u64::MAX / 4 + 2);
        frame.extend_from_slice(&[0u8; 64]);
        let mut out = Relation::new(4);
        let err = decode_frame_into(WireFormat::Vectored, &frame, &mut out);
        assert!(err.is_err(), "overflowing frame decoded: {err:?}");
        assert!(out.is_empty());
    }

    #[test]
    fn nullary_row_count_overflow_is_a_typed_error() {
        let mut frame = vec![0u8, 0];
        write_varint(&mut frame, u64::MAX);
        let mut out = Relation::new(0);
        out.push_nullary_rows(1);
        assert!(decode_frame_into(WireFormat::Vectored, &frame, &mut out).is_err());
        assert_eq!(out.len(), 1);
    }
}
