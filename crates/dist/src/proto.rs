//! Payload codecs and deadline-aware frame I/O for the PJCP control
//! conversation between coordinator and workers.
//!
//! The conversation per worker, over one TCP control connection:
//!
//! ```text
//! worker  -> Ready { data_addr }                       (on accept)
//! coord   -> Fragment { Fragment bytes }               (per query)
//! worker  -> OutputBatch { batch bytes } *             (streamed)
//! worker  -> OutputDone { WorkerStats }                (per query)
//! worker  -> Error { message }                         (instead, on failure)
//! coord   -> Shutdown                                  (end of session)
//! ```
//!
//! A worker keeps the seed partitions its fragments carry for the whole
//! session, so a fragment names a partition the worker holds by
//! fingerprint instead of shipping it again; naming one it does not hold
//! earns an `Error` reply like any other refused fragment.
//!
//! Frame framing, magic, and versioning live in
//! [`parjoin_common::wire::control`]; this module adds the payload
//! shapes and a [`read_frame_deadline`] that converts a socket read
//! timeout into a typed [`DistError::Timeout`] instead of an opaque
//! I/O string — the control plane's no-hangs guarantee rests on it.

use crate::error::DistError;
use parjoin_common::wire::control::{self, ControlError, FrameKind, PayloadReader};
use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Per-worker tallies reported in an `OutputDone` frame, used for
/// cross-process metric reconciliation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// The reporting worker's rank.
    pub rank: usize,
    /// Output tuples this rank produced (pre-distinct).
    pub output_tuples: u64,
    /// Tuples this rank placed on the data mesh.
    pub tuples_sent: u64,
    /// Exchange rounds this rank ran.
    pub rounds: u32,
    /// Data-plane payload bytes sent by this rank (this query only).
    pub tx_bytes: u64,
    /// Data-plane payload bytes received by this rank (this query only).
    pub rx_bytes: u64,
    /// Data-plane batches sent by this rank (this query only).
    pub tx_batches: u64,
    /// Data-plane batches received by this rank (this query only).
    pub rx_batches: u64,
}

/// Encodes a `Ready` payload.
pub fn encode_ready(data_addr: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    control::put_str(&mut buf, data_addr);
    buf
}

/// Decodes a `Ready` payload into the worker's data-plane address.
///
/// # Errors
/// [`ControlError`] on a truncated or trailing-garbage payload.
pub fn decode_ready(payload: &[u8]) -> Result<String, ControlError> {
    let mut r = PayloadReader::new(payload);
    let addr = r.str()?;
    r.done()?;
    Ok(addr)
}

/// Encodes an `Error` payload.
pub fn encode_error(message: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    control::put_str(&mut buf, message);
    buf
}

/// Decodes an `Error` payload into the worker's message.
///
/// # Errors
/// [`ControlError`] on a truncated or trailing-garbage payload.
pub fn decode_error(payload: &[u8]) -> Result<String, ControlError> {
    let mut r = PayloadReader::new(payload);
    let message = r.str()?;
    r.done()?;
    Ok(message)
}

/// Encodes an `OutputDone` payload (the rank rides in the connection,
/// not the frame).
pub fn encode_done(stats: &WorkerStats) -> Vec<u8> {
    let mut buf = Vec::new();
    control::put_u64(&mut buf, stats.output_tuples);
    control::put_u64(&mut buf, stats.tuples_sent);
    control::put_u32(&mut buf, stats.rounds);
    control::put_u64(&mut buf, stats.tx_bytes);
    control::put_u64(&mut buf, stats.rx_bytes);
    control::put_u64(&mut buf, stats.tx_batches);
    control::put_u64(&mut buf, stats.rx_batches);
    buf
}

/// Decodes an `OutputDone` payload, stamping it with the rank the
/// coordinator was collecting from.
///
/// # Errors
/// [`ControlError`] on a truncated or trailing-garbage payload.
pub fn decode_done(rank: usize, payload: &[u8]) -> Result<WorkerStats, ControlError> {
    let mut r = PayloadReader::new(payload);
    let stats = WorkerStats {
        rank,
        output_tuples: r.u64()?,
        tuples_sent: r.u64()?,
        rounds: r.u32()?,
        tx_bytes: r.u64()?,
        rx_bytes: r.u64()?,
        tx_batches: r.u64()?,
        rx_batches: r.u64()?,
    };
    r.done()?;
    Ok(stats)
}

/// A [`Read`] adapter that remembers whether the underlying socket read
/// expired, so callers can tell a deadline from a dead peer.
struct DeadlineRead<'a> {
    inner: &'a mut TcpStream,
    expired: bool,
}

impl Read for DeadlineRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.inner.read(buf) {
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                self.expired = true;
                Err(e)
            }
            other => other,
        }
    }
}

/// Reads one control frame, giving up after `timeout` (when set) with a
/// typed [`DistError::Timeout`] naming `what`. A peer that closes the
/// connection instead surfaces immediately as
/// [`DistError::Control`]\([`ControlError::Truncated`]).
///
/// # Errors
/// [`DistError::Io`] when the socket refuses the deadline,
/// [`DistError::Timeout`] on expiry, [`DistError::Control`] on any
/// other frame failure.
pub fn read_frame_deadline(
    stream: &mut TcpStream,
    limit: u32,
    timeout: Option<Duration>,
    what: &str,
) -> Result<(FrameKind, Vec<u8>), DistError> {
    stream
        .set_read_timeout(timeout)
        .map_err(|e| DistError::Io(format!("set_read_timeout: {e}")))?;
    let start = Instant::now();
    let mut guarded = DeadlineRead {
        inner: stream,
        expired: false,
    };
    match control::read_frame(&mut guarded, limit) {
        Ok(frame) => Ok(frame),
        Err(_) if guarded.expired => Err(DistError::Timeout {
            what: what.to_string(),
            waited: start.elapsed(),
        }),
        Err(e) => Err(DistError::Control(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_payload_roundtrips() {
        let stats = WorkerStats {
            rank: 3,
            output_tuples: 42,
            tuples_sent: 7,
            rounds: 2,
            tx_bytes: 1000,
            rx_bytes: 900,
            tx_batches: 5,
            rx_batches: 4,
        };
        let back = decode_done(3, &encode_done(&stats)).unwrap();
        assert_eq!(stats, back);
    }

    #[test]
    fn ready_and_error_payloads_roundtrip() {
        assert_eq!(
            decode_ready(&encode_ready("10.0.0.7:4001")).unwrap(),
            "10.0.0.7:4001"
        );
        assert_eq!(decode_error(&encode_error("boom")).unwrap(), "boom");
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut p = encode_ready("x:1");
        p.push(0);
        assert!(decode_ready(&p).is_err());
    }
}
