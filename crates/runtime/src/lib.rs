#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parjoin-runtime
//!
//! A message-passing worker runtime for the parjoin engine. Each of the
//! `p` simulated machines becomes a long-lived OS thread (an *actor*)
//! that executes jobs sent over a control channel. Workers exchange
//! tuples through a pluggable
//! [`Transport`](transport::Transport):
//!
//! * [`TransportKind::Local`] — the degenerate in-memory path: shuffles
//!   run as a sequential loop, exactly reproducing the original
//!   simulator (same tallies, same row order, zero bytes moved).
//! * [`TransportKind::InProcess`] — bounded `mpsc` channels between the
//!   worker threads; full streaming protocol, backpressure from the
//!   channel bound.
//! * [`TransportKind::Tcp`] — length-prefixed frames over loopback
//!   sockets.
//!
//! Shuffles stream fixed-size batches (`batch_tuples` rows each) in the
//! compact [`parjoin_common::wire`] encoding, so byte tallies are real
//! payload bytes and identical across the streaming transports.
//!
//! ## Worker lifecycle
//!
//! [`Runtime::new`] spawns the threads; [`Runtime::shuffle`] executes
//! one exchange on them; [`Runtime::shutdown`] (or drop) closes the
//! control channels and joins every thread.

pub mod error;
pub mod exchange;
pub mod metrics;
pub mod pool;
pub mod tcp;
pub mod transport;

pub use error::RuntimeError;
pub use metrics::RuntimeObs;
pub use pool::BufPool;
pub use tcp::{HandshakeConfig, HostMesh};
pub use transport::TransportKind;

use parjoin_common::{Relation, Value, WireFormat};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Decides, per producing worker and row, which workers receive a copy.
///
/// Arguments: producing worker id, the row, and an output buffer the
/// router fills with destination worker ids (cleared by the caller
/// between rows). One closure expresses all three of the paper's
/// shuffles: hash partitioning pushes one destination, broadcast pushes
/// all of them, HyperCube pushes the row's subcube slab.
pub type Router = Arc<dyn Fn(usize, &[Value], &mut Vec<usize>) + Send + Sync>;

/// Runtime construction knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker actors (`p` in the paper).
    pub workers: usize,
    /// How tuples move between workers.
    pub transport: TransportKind,
    /// Rows per streamed batch. Must be at least 1; `parjoin-analyze`
    /// pre-flights this (and warns when a batch exceeds the memory
    /// budget) before a plan reaches the runtime.
    pub batch_tuples: usize,
    /// Bound (in frames) of each worker's transport inbox — the
    /// backpressure window.
    pub channel_depth: usize,
    /// Cap on every blocking receive, guarding against a hung peer
    /// deadlocking the mesh.
    pub io_timeout: Duration,
    /// Frame encoding on the wire. There is one ([`WireFormat`]):
    /// batches are written scatter/gather from borrowed slices.
    pub wire_format: WireFormat,
    /// Delta+varint column compression on shuffled batches.
    pub wire_compression: bool,
    /// Per-frame size limit streaming transports enforce on both sides.
    pub max_frame_bytes: u32,
    /// Dial attempts per peer during TCP mesh formation before the
    /// connect is declared dead (backoff between attempts doubles from
    /// 1 ms up to `connect_backoff_cap`).
    pub connect_attempts: u32,
    /// Ceiling on the exponential dial backoff during mesh formation.
    pub connect_backoff_cap: Duration,
    /// Deadline for the accept-plus-hello phase of TCP mesh formation;
    /// a peer that connects but never announces itself surfaces as
    /// [`RuntimeError::HandshakeTimeout`](error::RuntimeError::HandshakeTimeout)
    /// once this expires.
    pub handshake_timeout: Duration,
    /// Observability bundle the exchange and transports report into
    /// (bytes, batches, flushes, receive waits, decode errors, and the
    /// per-worker `shuffle` trace spans). Detached by default.
    pub obs: RuntimeObs,
}

/// Default batch size: ~4096 rows per batch keeps frames in the tens of
/// kilobytes for typical arities — large enough to amortize per-frame
/// costs, small enough that bounded inboxes stay shallow.
pub const DEFAULT_BATCH_TUPLES: usize = 4096;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            transport: TransportKind::Local,
            batch_tuples: DEFAULT_BATCH_TUPLES,
            channel_depth: 8,
            io_timeout: Duration::from_secs(30),
            wire_format: WireFormat::default(),
            wire_compression: false,
            max_frame_bytes: transport::MAX_FRAME_BYTES,
            connect_attempts: 10,
            connect_backoff_cap: Duration::from_millis(128),
            handshake_timeout: Duration::from_secs(10),
            obs: RuntimeObs::detached(),
        }
    }
}

/// Aggregated result of one shuffle across all workers.
#[derive(Debug)]
pub struct ShuffleOutcome {
    /// Post-shuffle partition of each worker.
    pub parts: Vec<Relation>,
    /// Tuples sent per producing worker (one per destination copy).
    pub per_producer: Vec<u64>,
    /// Tuples received per consuming worker.
    pub per_consumer: Vec<u64>,
    /// Total encoded batch bytes sent (0 under [`TransportKind::Local`]).
    pub bytes_sent: u64,
    /// Uncompressed-equivalent bytes of the sent batches — equals
    /// `bytes_sent` unless wire compression shrank the frames.
    pub bytes_sent_raw: u64,
    /// Total encoded batch bytes received.
    pub bytes_received: u64,
}

/// A job run on one actor thread; the argument is the worker's id.
type Job = Box<dyn FnOnce(usize) + Send>;

struct Worker {
    tx: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// The worker-actor runtime.
pub struct Runtime {
    config: RuntimeConfig,
    workers: Vec<Worker>,
    /// Recycled receive buffers shared by every shuffle this runtime
    /// runs; hand-outs tally on `runtime.buf.{reuses,allocs}`.
    pool: Arc<BufPool>,
}

impl Runtime {
    /// Spawns `config.workers` actor threads.
    ///
    /// # Errors
    /// [`RuntimeError::Config`] on zero workers or zero `batch_tuples`;
    /// [`RuntimeError::Io`] if thread spawning fails.
    pub fn new(config: RuntimeConfig) -> Result<Self, RuntimeError> {
        if config.workers == 0 {
            return Err(RuntimeError::Config(
                "runtime needs at least one worker".into(),
            ));
        }
        if config.batch_tuples == 0 {
            return Err(RuntimeError::Config(
                "batch_tuples must be at least 1 (a zero-row batch can never flush)".into(),
            ));
        }
        let mut workers = Vec::with_capacity(config.workers);
        for id in 0..config.workers {
            let (tx, rx) = channel::<Job>();
            // The handle is kept in `Worker` and joined by `shutdown`.
            let handle = std::thread::Builder::new()
                .name(format!("parjoin-worker-{id}"))
                // xtask: allow(spawn)
                .spawn(move || {
                    // The actor loop: run jobs until the runtime drops
                    // the control channel.
                    while let Ok(job) = rx.recv() {
                        job(id);
                    }
                })
                .map_err(|e| RuntimeError::Io(format!("spawning worker {id}: {e}")))?;
            workers.push(Worker {
                tx,
                handle: Some(handle),
            });
        }
        let pool = Arc::new(BufPool::new(
            pool::DEFAULT_POOL_CAP,
            config.obs.buf_reuses.clone(),
            config.obs.buf_allocs.clone(),
        ));
        Ok(Runtime {
            config,
            workers,
            pool,
        })
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of worker actors.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Executes one exchange: every worker routes its partition's rows
    /// through `router` and the runtime returns the repartitioned data
    /// plus the paper's per-producer/per-consumer tallies and real byte
    /// counts.
    ///
    /// `parts[i]` is worker `i`'s input partition; `parts.len()` must
    /// equal the worker count. Row order of the output partitions is
    /// deterministic and identical across all transports (sources are
    /// concatenated in ascending order).
    ///
    /// # Errors
    /// Transport failures (peer death, timeouts, wire corruption) and
    /// [`RuntimeError::Config`] on a partition-count mismatch.
    pub fn shuffle(
        &self,
        parts: Vec<Relation>,
        router: Router,
    ) -> Result<ShuffleOutcome, RuntimeError> {
        let p = self.config.workers;
        if parts.len() != p {
            return Err(RuntimeError::Config(format!(
                "shuffle got {} partitions for {p} workers",
                parts.len()
            )));
        }
        match self.config.transport {
            TransportKind::Local => Ok(local_shuffle(&parts, &router)),
            TransportKind::InProcess => {
                self.streaming_shuffle(parts, &router, &transport::InProcess)
            }
            TransportKind::Tcp => {
                let transport = tcp::Tcp::with_obs(self.config.obs.clone())
                    .with_frame_limit(self.config.max_frame_bytes)
                    .with_handshake(tcp::HandshakeConfig {
                        connect_attempts: self.config.connect_attempts,
                        backoff_cap: self.config.connect_backoff_cap,
                        handshake_timeout: self.config.handshake_timeout,
                        ..tcp::HandshakeConfig::default()
                    });
                self.streaming_shuffle(parts, &router, &transport)
            }
        }
    }

    fn streaming_shuffle(
        &self,
        parts: Vec<Relation>,
        router: &Router,
        transport: &dyn transport::Transport,
    ) -> Result<ShuffleOutcome, RuntimeError> {
        let p = self.config.workers;
        let opts = exchange::ExchangeOpts {
            batch_tuples: self.config.batch_tuples,
            format: self.config.wire_format,
            compression: self.config.wire_compression,
        };
        let endpoints = transport.mesh(
            p,
            self.config.channel_depth,
            self.config.io_timeout,
            &self.pool,
        )?;
        let parts = Arc::new(parts);
        let outcomes = {
            let mut endpoints = endpoints.into_iter();
            self.run_jobs(|| {
                let endpoint = endpoints.next();
                let parts = Arc::clone(&parts);
                let router = Arc::clone(router);
                let obs = self.config.obs.clone();
                let pool = Arc::clone(&self.pool);
                Box::new(move |id: usize| {
                    let Some(endpoint) = endpoint else {
                        // A transport handing back fewer endpoints than
                        // workers is a contract violation, not a panic.
                        return Err(RuntimeError::Config(format!(
                            "transport returned no endpoint for worker {id}"
                        )));
                    };
                    exchange::run_worker(
                        id,
                        &parts[id],
                        parts.len(),
                        opts,
                        endpoint,
                        &router,
                        &obs,
                        &pool,
                    )
                })
            })?
        };

        let mut out = ShuffleOutcome {
            parts: Vec::with_capacity(p),
            per_producer: Vec::with_capacity(p),
            per_consumer: Vec::with_capacity(p),
            bytes_sent: 0,
            bytes_sent_raw: 0,
            bytes_received: 0,
        };
        for worker in outcomes {
            let worker = worker?;
            out.per_producer.push(worker.sent_tuples);
            out.per_consumer.push(worker.received.len() as u64);
            out.bytes_sent += worker.bytes_sent;
            out.bytes_sent_raw += worker.bytes_sent_raw;
            out.bytes_received += worker.bytes_received;
            out.parts.push(worker.received);
        }
        Ok(out)
    }

    /// Dispatches one job per worker (built by `make`; the job receives
    /// its worker's id) and collects their results in worker order.
    fn run_jobs<T, M>(&self, mut make: M) -> Result<Vec<T>, RuntimeError>
    where
        T: Send + 'static,
        M: FnMut() -> Box<dyn FnOnce(usize) -> T + Send>,
    {
        let (res_tx, res_rx) = channel::<(usize, T)>();
        for (id, worker) in self.workers.iter().enumerate() {
            let job = make();
            let res_tx = res_tx.clone();
            worker
                .tx
                .send(Box::new(move |id| {
                    let out = job(id);
                    // The runtime may have given up (timeout) and dropped
                    // the receiver; nothing useful to do with `out` then.
                    let _ = res_tx.send((id, out));
                }))
                .map_err(|_| RuntimeError::Disconnected(format!("worker {id} thread is gone")))?;
        }
        drop(res_tx);
        let mut slots: Vec<Option<T>> = (0..self.workers.len()).map(|_| None).collect();
        for _ in 0..self.workers.len() {
            let (id, value) = res_rx
                .recv_timeout(self.config.io_timeout)
                .map_err(|e| match e {
                    std::sync::mpsc::RecvTimeoutError::Timeout => RuntimeError::Timeout(format!(
                        "worker result missing after {:?}",
                        self.config.io_timeout
                    )),
                    std::sync::mpsc::RecvTimeoutError::Disconnected => {
                        RuntimeError::Disconnected("a worker died mid-job".into())
                    }
                })?;
            slots[id] = Some(value);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(id, slot)| {
                slot.ok_or_else(|| {
                    RuntimeError::Disconnected(format!("worker {id} returned no result"))
                })
            })
            .collect()
    }

    /// Closes every control channel and joins the worker threads.
    ///
    /// # Errors
    /// [`RuntimeError::Io`] if a worker thread panicked.
    pub fn shutdown(mut self) -> Result<(), RuntimeError> {
        self.join_all()
    }

    fn join_all(&mut self) -> Result<(), RuntimeError> {
        // Dropping the senders ends each actor loop.
        for worker in &mut self.workers {
            let (dead_tx, _) = channel::<Job>();
            worker.tx = dead_tx;
        }
        let mut first_panic = None;
        for (id, worker) in self.workers.iter_mut().enumerate() {
            if let Some(handle) = worker.handle.take() {
                if handle.join().is_err() && first_panic.is_none() {
                    first_panic = Some(id);
                }
            }
        }
        match first_panic {
            Some(id) => Err(RuntimeError::Io(format!("worker {id} panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Best-effort join so threads never outlive the runtime; errors
        // were either already reported by shutdown() or unobservable here.
        let _ = self.join_all();
    }
}

/// The sequential in-memory shuffle ([`TransportKind::Local`]): iterate
/// producers in ascending order, append each row to its destinations.
/// This is byte-for-byte the original simulator loop, kept as the
/// degenerate case of the runtime so existing tests and the memory-budget
/// failure injection are unaffected.
pub fn local_shuffle(parts: &[Relation], router: &Router) -> ShuffleOutcome {
    let p = parts.len();
    let arity = parts.first().map_or(0, Relation::arity);
    let mut out: Vec<Relation> = (0..p).map(|_| Relation::new(arity)).collect();
    let mut per_producer = vec![0u64; p];
    let mut per_consumer = vec![0u64; p];
    let mut dests: Vec<usize> = Vec::with_capacity(p);
    for (w, part) in parts.iter().enumerate() {
        for row in part.rows() {
            dests.clear();
            router(w, row, &mut dests);
            per_producer[w] += dests.len() as u64;
            for &d in &dests {
                out[d].push_row(row);
                per_consumer[d] += 1;
            }
        }
    }
    ShuffleOutcome {
        parts: out,
        per_producer,
        per_consumer,
        bytes_sent: 0,
        bytes_sent_raw: 0,
        bytes_received: 0,
    }
}
