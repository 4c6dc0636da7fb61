//! Load-balance statistics for shuffles.
//!
//! The paper quantifies shuffle skew as the ratio between the maximum and
//! the average load (Tables 2–4): *"the skew factor (ratio between the
//! maximum load and the average load)"*. Producer skew is computed over
//! tuples sent per source worker, consumer skew over tuples received per
//! destination worker.

/// Max/average ratio over per-worker loads. Returns 1.0 for all-zero or
/// empty inputs (a perfectly balanced no-op shuffle).
pub fn skew(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let avg = total as f64 / counts.len() as f64;
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    max / avg
}

/// Metrics for one shuffle step, in the shape of the paper's Tables 2–4.
#[derive(Debug, Clone)]
pub struct ShuffleStats {
    /// Human-readable label, e.g. `"R(x, y) ->h(y)"` or `"HCS S(y, z)"`.
    pub label: String,
    /// Total tuples placed on the (simulated) network.
    pub tuples_sent: u64,
    /// Tuples sent per producing worker.
    pub per_producer: Vec<u64>,
    /// Tuples received per consuming worker.
    pub per_consumer: Vec<u64>,
    /// Encoded batch bytes placed on the wire by all producers. Zero for
    /// the in-memory `Local` transport, which moves no bytes; under the
    /// streaming transports this is the true payload volume (transport
    /// framing overhead excluded, so `InProcess` and `Tcp` report the
    /// same number for the same shuffle).
    pub bytes_sent: u64,
    /// Encoded batch bytes drained from the wire by all consumers.
    pub bytes_received: u64,
}

impl ShuffleStats {
    /// Builds stats from per-producer/per-consumer tallies.
    pub fn new(label: impl Into<String>, per_producer: Vec<u64>, per_consumer: Vec<u64>) -> Self {
        let tuples_sent = per_consumer.iter().sum();
        ShuffleStats {
            label: label.into(),
            tuples_sent,
            per_producer,
            per_consumer,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// Attaches on-wire byte tallies (builder style).
    #[must_use]
    pub fn with_bytes(mut self, sent: u64, received: u64) -> Self {
        self.bytes_sent = sent;
        self.bytes_received = received;
        self
    }

    /// Max/average tuples sent per producer.
    pub fn producer_skew(&self) -> f64 {
        skew(&self.per_producer)
    }

    /// Max/average tuples received per consumer.
    pub fn consumer_skew(&self) -> f64 {
        skew(&self.per_consumer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_balanced_is_one() {
        assert!((skew(&[10, 10, 10, 10]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skew_empty_and_zero() {
        assert_eq!(skew(&[]), 1.0);
        assert_eq!(skew(&[0, 0, 0]), 1.0);
    }

    #[test]
    fn skew_single_hot_worker() {
        // One worker gets everything among 4: max=100, avg=25 → 4.0.
        assert!((skew(&[100, 0, 0, 0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn shuffle_stats_totals() {
        let s = ShuffleStats::new("t", vec![5, 5], vec![2, 8]);
        assert_eq!(s.tuples_sent, 10);
        assert!((s.producer_skew() - 1.0).abs() < 1e-12);
        assert!((s.consumer_skew() - 1.6).abs() < 1e-12);
    }
}
