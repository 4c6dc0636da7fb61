//! Cluster configuration.

use parjoin_common::WireFormat;
use parjoin_runtime::TransportKind;

/// A simulated shared-nothing cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Number of workers (the paper's default: 64).
    pub workers: usize,
    /// Per-worker memory budget in *tuples held live by one operator
    /// pipeline* (inputs + sort copies + output of the running join).
    /// `None` disables the check. Exceeding the budget aborts the plan
    /// with [`EngineError::MemoryBudget`](crate::EngineError::MemoryBudget),
    /// reproducing the paper's Q4 `RS_TJ` FAIL (Figure 9).
    pub memory_budget: Option<u64>,
    /// Base seed for all hash functions; fixed seed ⇒ reproducible runs.
    pub seed: u64,
    /// Fixed latency charged to wall-clock per communication round
    /// (shuffle barrier). Zero by default; set it to model the paper's
    /// observation that multi-round plans (regular shuffle, semijoins)
    /// pay per-round synchronization costs that one-round HyperCube
    /// plans avoid ("the extra cost of additional rounds of
    /// communication canceled all savings", §3.6).
    pub round_latency: std::time::Duration,
    /// CPU/network cost charged per tuple a worker sends or receives
    /// during a shuffle (serialization, transfer, deserialization). This
    /// is what turns shuffle *volume skew* into *wall-clock* skew — the
    /// paper's central Q1 observation that the worker producing 20.8x
    /// the average intermediate result becomes the straggler. The
    /// default, 500 ns/tuple, is conservative against Myria's
    /// JVM-serialization + 10 GbE stack.
    pub shuffle_tuple_cost: std::time::Duration,
    /// How shuffles move tuples between workers. `Local` (default)
    /// replays the original in-memory loop; `InProcess`/`Tcp` stream
    /// encoded batches through the worker runtime, yielding real
    /// `bytes_sent`/`bytes_received` tallies on every shuffle. `Tcp` is
    /// the multi-process mesh on loopback: every rank a
    /// [`HostMesh`](parjoin_runtime::HostMesh) member, as in a
    /// `parjoin-worker` process.
    pub transport: TransportKind,
    /// Rows per streamed batch under the streaming transports; ignored
    /// by `Local`. The analyzer pre-flights degenerate values.
    pub batch_tuples: usize,
    /// Frame encoding under the streaming transports; ignored by
    /// `Local`. There is one ([`WireFormat`]): batches are written
    /// scatter/gather from borrowed slices, and the same frame carries
    /// fragment partitions and returned output over a mesh.
    pub wire_format: WireFormat,
}

impl Cluster {
    /// A cluster with `workers` workers, no memory budget, seed 0.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "cluster needs at least one worker");
        Cluster {
            workers,
            memory_budget: None,
            seed: 0,
            round_latency: std::time::Duration::ZERO,
            shuffle_tuple_cost: std::time::Duration::from_nanos(500),
            transport: TransportKind::Local,
            batch_tuples: parjoin_runtime::DEFAULT_BATCH_TUPLES,
            wire_format: WireFormat::default(),
        }
    }

    /// Sets the shuffle transport.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the streaming-shuffle wire format.
    pub fn with_wire_format(mut self, format: WireFormat) -> Self {
        self.wire_format = format;
        self
    }

    /// Sets the streaming-shuffle batch size (rows per batch).
    pub fn with_batch_tuples(mut self, batch: usize) -> Self {
        self.batch_tuples = batch;
        self
    }

    /// Sets the per-tuple shuffle cost (0 disables network-time modeling).
    pub fn with_shuffle_tuple_cost(mut self, d: std::time::Duration) -> Self {
        self.shuffle_tuple_cost = d;
        self
    }

    /// Sets the per-round latency.
    pub fn with_round_latency(mut self, d: std::time::Duration) -> Self {
        self.round_latency = d;
        self
    }

    /// Sets the per-worker memory budget (tuples).
    pub fn with_memory_budget(mut self, tuples: u64) -> Self {
        self.memory_budget = Some(tuples);
        self
    }

    /// Sets the hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = Cluster::new(8)
            .with_memory_budget(1000)
            .with_seed(7)
            .with_transport(TransportKind::InProcess)
            .with_batch_tuples(512);
        assert_eq!(c.workers, 8);
        assert_eq!(c.memory_budget, Some(1000));
        assert_eq!(c.seed, 7);
        assert_eq!(c.transport, TransportKind::InProcess);
        assert_eq!(c.batch_tuples, 512);
    }

    #[test]
    fn default_transport_is_local() {
        let c = Cluster::new(2);
        assert_eq!(c.transport, TransportKind::Local);
        assert!(c.batch_tuples > 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        Cluster::new(0);
    }
}
