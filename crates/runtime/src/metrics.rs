//! The runtime's observability surface: transport/exchange counters and
//! the trace sink the exchange records its per-worker spans into.
//!
//! A [`RuntimeObs`] is a bundle of [`Counter`] handles plus an
//! `Arc<TraceSink>`. The default bundle is *detached* — the counters
//! count into thin air (one relaxed atomic add per **batch**, never per
//! tuple) and the sink is disabled, so a runtime constructed without an
//! observer pays close to nothing. An engine run that wants the tallies
//! registers the bundle on its per-run [`Registry`] via
//! [`RuntimeObs::on_registry`], under the canonical [`names`].

use parjoin_obs::{Counter, Registry, TraceSink};
use std::sync::Arc;

/// Canonical registry names for the runtime's counters.
pub mod names {
    /// Encoded payload bytes handed to a transport sender.
    pub const TX_BYTES: &str = "runtime.tx.bytes";
    /// Encoded payload bytes drained from transport receivers.
    pub const RX_BYTES: &str = "runtime.rx.bytes";
    /// Batches (frames) sent.
    pub const TX_BATCHES: &str = "runtime.tx.batches";
    /// Batches (frames) received.
    pub const RX_BATCHES: &str = "runtime.rx.batches";
    /// Transport-level write flushes (TCP flushes once per frame and
    /// once per end-of-stream marker; in-process channels never flush).
    pub const TX_FLUSHES: &str = "runtime.tx.flushes";
    /// Nanoseconds drain threads spent blocked in `recv`.
    pub const RX_WAIT_NS: &str = "runtime.rx.wait_ns";
    /// Nanoseconds senders spent inside the transport's send, blocked
    /// on a full destination included: the mirror of [`RX_WAIT_NS`].
    pub const TX_WAIT_NS: &str = "runtime.tx.wait_ns";
    /// Frames rejected on the receive path: by a transport's stream
    /// decoder (corrupt tag, oversized length prefix, stream truncated
    /// mid-frame) or by the exchange's payload decoder (a frame that
    /// arrived intact but is not a valid batch).
    pub const RX_DECODE_ERRORS: &str = "runtime.rx.decode_errors";
    /// Receive buffers handed out from the pool's free list.
    pub const BUF_REUSES: &str = "runtime.buf.reuses";
    /// Receive buffers freshly allocated because the free list was
    /// empty (steady state should be all reuses).
    pub const BUF_ALLOCS: &str = "runtime.buf.allocs";
    /// Receive loops started — one per worker per shuffle under the
    /// event-loop demux, regardless of peer count.
    pub const RX_THREADS: &str = "runtime.rx.threads";
}

/// Counter handles and trace sink threaded through the exchange and the
/// transports. Cloning shares the underlying tallies.
#[derive(Clone, Debug)]
pub struct RuntimeObs {
    /// Encoded payload bytes sent ([`names::TX_BYTES`]).
    pub tx_bytes: Counter,
    /// Encoded payload bytes received ([`names::RX_BYTES`]).
    pub rx_bytes: Counter,
    /// Batches sent ([`names::TX_BATCHES`]).
    pub tx_batches: Counter,
    /// Batches received ([`names::RX_BATCHES`]).
    pub rx_batches: Counter,
    /// Transport write flushes ([`names::TX_FLUSHES`]).
    pub tx_flushes: Counter,
    /// Drain-thread blocked-receive nanoseconds ([`names::RX_WAIT_NS`]).
    pub rx_wait_ns: Counter,
    /// Sender nanoseconds inside the transport ([`names::TX_WAIT_NS`]).
    pub tx_wait_ns: Counter,
    /// Decoder rejections ([`names::RX_DECODE_ERRORS`]).
    pub rx_decode_errors: Counter,
    /// Pool free-list hits ([`names::BUF_REUSES`]).
    pub buf_reuses: Counter,
    /// Pool fresh allocations ([`names::BUF_ALLOCS`]).
    pub buf_allocs: Counter,
    /// Receive loops started ([`names::RX_THREADS`]).
    pub rx_threads: Counter,
    /// Where exchange workers record their per-worker `shuffle` spans.
    pub trace: Arc<TraceSink>,
}

impl RuntimeObs {
    /// A detached bundle: counters feed no registry, the sink is
    /// disabled. This is the [`Default`].
    pub fn detached() -> RuntimeObs {
        RuntimeObs {
            tx_bytes: Counter::new(),
            rx_bytes: Counter::new(),
            tx_batches: Counter::new(),
            rx_batches: Counter::new(),
            tx_flushes: Counter::new(),
            rx_wait_ns: Counter::new(),
            tx_wait_ns: Counter::new(),
            rx_decode_errors: Counter::new(),
            buf_reuses: Counter::new(),
            buf_allocs: Counter::new(),
            rx_threads: Counter::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// A bundle whose counters live on `registry` (under the canonical
    /// [`names`]) and whose spans record into `trace`.
    pub fn on_registry(registry: &Registry, trace: Arc<TraceSink>) -> RuntimeObs {
        RuntimeObs {
            tx_bytes: registry.counter(names::TX_BYTES),
            rx_bytes: registry.counter(names::RX_BYTES),
            tx_batches: registry.counter(names::TX_BATCHES),
            rx_batches: registry.counter(names::RX_BATCHES),
            tx_flushes: registry.counter(names::TX_FLUSHES),
            rx_wait_ns: registry.counter(names::RX_WAIT_NS),
            tx_wait_ns: registry.counter(names::TX_WAIT_NS),
            rx_decode_errors: registry.counter(names::RX_DECODE_ERRORS),
            buf_reuses: registry.counter(names::BUF_REUSES),
            buf_allocs: registry.counter(names::BUF_ALLOCS),
            rx_threads: registry.counter(names::RX_THREADS),
            trace,
        }
    }
}

impl Default for RuntimeObs {
    fn default() -> Self {
        RuntimeObs::detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_registry_counts_into_named_slots() {
        let reg = Registry::new();
        let obs = RuntimeObs::on_registry(&reg, TraceSink::disabled());
        obs.tx_bytes.add(10);
        obs.rx_decode_errors.inc();
        assert_eq!(reg.get(names::TX_BYTES), Some(10));
        assert_eq!(reg.get(names::RX_DECODE_ERRORS), Some(1));
        assert_eq!(reg.get(names::RX_BYTES), Some(0), "registered at zero");
    }

    #[test]
    fn detached_counts_but_reports_nowhere() {
        let obs = RuntimeObs::detached();
        obs.tx_batches.add(5);
        assert_eq!(obs.tx_batches.get(), 5);
        assert!(!obs.trace.is_enabled());
    }
}
