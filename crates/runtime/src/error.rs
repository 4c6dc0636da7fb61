//! Runtime error type.

use std::fmt;
use std::time::Duration;

/// Failures raised by the worker runtime and its transports.
///
/// `Clone` is required so the engine can embed runtime failures inside
/// its own cloneable error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Invalid [`RuntimeConfig`](crate::RuntimeConfig) (zero workers,
    /// zero batch size, a transport compiled out, …).
    Config(String),
    /// A socket or wire-format failure in a transport.
    Io(String),
    /// A peer worker disappeared before signalling end-of-stream.
    Disconnected(String),
    /// A blocking receive exceeded the configured I/O timeout — the
    /// runtime's guard against a hung peer deadlocking the whole mesh.
    Timeout(String),
    /// Mesh formation did not complete within the handshake deadline:
    /// either a peer connected but never sent its 4-byte hello, or not
    /// enough peers connected at all. Distinct from [`Timeout`](Self::Timeout)
    /// (which guards an *established* stream) so callers can tell a
    /// cluster that never formed from one that died mid-query.
    HandshakeTimeout {
        /// The peer (socket address) or listener the handshake was
        /// waiting on, with enough context to name what never arrived.
        peer: String,
        /// How long the handshake waited before giving up.
        waited: Duration,
    },
    /// Two connections announced the same worker id during mesh
    /// formation. Accepting the second would silently replace the first
    /// peer's stream, so the mesh refuses to form instead.
    DuplicateHello {
        /// The worker id both connections claimed.
        worker: usize,
        /// Socket address of the first connection that claimed the id.
        first: String,
        /// Socket address of the second (rejected) connection.
        second: String,
    },
    /// An encoded batch exceeded the transport's frame limit. The frame
    /// was *not* sent: a length prefix above the limit is indistinguishable
    /// from corruption on the receiving side, so the sender refuses it
    /// up front instead of poisoning the stream.
    FrameTooLarge {
        /// The encoded batch size that was rejected.
        bytes: u64,
        /// The per-frame ceiling in force when the frame was rejected —
        /// the sending mesh member's `max_frame`, so the message names
        /// the limit a deployment can raise.
        limit: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Config(m) => write!(f, "runtime config error: {m}"),
            RuntimeError::Io(m) => write!(f, "runtime I/O error: {m}"),
            RuntimeError::Disconnected(m) => write!(f, "runtime peer disconnected: {m}"),
            RuntimeError::Timeout(m) => write!(f, "runtime timeout: {m}"),
            RuntimeError::HandshakeTimeout { peer, waited } => write!(
                f,
                "mesh handshake timed out after {waited:?} waiting on {peer}"
            ),
            RuntimeError::DuplicateHello {
                worker,
                first,
                second,
            } => write!(
                f,
                "duplicate hello for worker {worker}: already registered from {first}, \
                 rejected second connection from {second}"
            ),
            RuntimeError::FrameTooLarge { bytes, limit } => write!(
                f,
                "frame of {bytes} bytes exceeds the configured {limit}-byte frame limit; \
                 lower batch_tuples (or raise HostMesh::max_frame) so encoded batches fit one frame"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_timeout_names_peer_and_wait() {
        let msg = RuntimeError::HandshakeTimeout {
            peer: "127.0.0.1:4242".to_string(),
            waited: Duration::from_millis(1500),
        }
        .to_string();
        assert!(msg.contains("127.0.0.1:4242"), "names the peer: {msg}");
        assert!(msg.contains("1.5s"), "names the wait: {msg}");
    }

    #[test]
    fn duplicate_hello_names_both_sockets() {
        let msg = RuntimeError::DuplicateHello {
            worker: 3,
            first: "127.0.0.1:1000".to_string(),
            second: "127.0.0.1:2000".to_string(),
        }
        .to_string();
        assert!(msg.contains("worker 3"), "names the worker id: {msg}");
        assert!(msg.contains("127.0.0.1:1000"), "names first socket: {msg}");
        assert!(msg.contains("127.0.0.1:2000"), "names second socket: {msg}");
    }

    #[test]
    fn frame_too_large_names_rejected_size_and_configured_limit() {
        let msg = RuntimeError::FrameTooLarge {
            bytes: 4096,
            limit: 1024,
        }
        .to_string();
        assert!(msg.contains("4096 bytes"), "names the rejected size: {msg}");
        assert!(
            msg.contains("configured 1024-byte frame limit"),
            "names the limit actually in force: {msg}"
        );
        assert!(msg.contains("max_frame"), "names the knob: {msg}");
    }
}
