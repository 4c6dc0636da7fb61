#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parjoin-runtime
//!
//! A message-passing worker runtime for the parjoin engine. A
//! [`Runtime`] is *the ranks of one exchange mesh that this process
//! hosts*: [`Runtime::new`] hosts all `p` of them, each a long-lived OS
//! thread (an *actor*) that executes jobs sent over a control channel;
//! [`Runtime::rank_of`] hosts the one rank of a multi-process
//! [`HostMesh`] member. Either way every hosted rank runs the same
//! [`exchange::run_worker`] per shuffle; what differs is only how a rank
//! gets the round's [`Endpoint`](transport::Endpoint):
//!
//! * [`TransportKind::Local`] — the degenerate in-memory path: shuffles
//!   run as a sequential loop, exactly reproducing the original
//!   simulator (same tallies, same row order, zero bytes moved).
//! * [`TransportKind::InProcess`] — bounded `mpsc` channels between the
//!   rank threads ([`transport::in_process_mesh`]); full streaming
//!   protocol, backpressure from the channel bound.
//! * [`TransportKind::Tcp`] — length-prefixed frames over sockets: every
//!   rank is a [`HostMesh`] member and forms its own endpoint. In
//!   process the `p` members are bound on loopback once, in
//!   [`Runtime::new`]; across processes each worker brings its own.
//!
//! Shuffles stream fixed-size batches (`batch_tuples` rows each) in the
//! compact [`parjoin_common::wire`] encoding, so byte tallies are real
//! payload bytes and identical across the streaming transports.
//!
//! ## Worker lifecycle
//!
//! [`Runtime::new`] spawns the threads; [`Runtime::shuffle`] executes
//! one exchange of materialised partitions on them,
//! [`Runtime::exchange`] one fed by a producer per rank (a join whose
//! output is routed as it is made), and [`Runtime::exchange_with`] one
//! whose ranks also consume what they receive as it arrives (a join
//! probed batch by batch); [`Runtime::shutdown`] (or drop) closes the
//! control channels and joins every thread. A runtime hosting a single
//! rank spawns none: with no in-process peer to run beside, the rank's
//! side of the exchange runs on the calling thread.

pub mod error;
pub mod exchange;
pub mod metrics;
pub mod pool;
pub mod route;
pub mod tcp;
pub mod transport;

pub use error::RuntimeError;
pub use metrics::RuntimeObs;
pub use pool::BufPool;
pub use route::Route;
pub use tcp::{HandshakeConfig, HostMesh};
pub use transport::TransportKind;

use parjoin_common::{Relation, Value, WireFormat};
use std::borrow::Borrow;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// deadlocking the mesh (a TCP member's
    /// [`HostMesh::recv_timeout`]).
    pub io_timeout: Duration,
    /// Frame encoding on the wire. There is one ([`WireFormat`]):
    /// batches are written scatter/gather from borrowed slices.
    pub wire_format: WireFormat,
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
    /// Total encoded batch bytes received.
    pub bytes_received: u64,
}

/// What [`Runtime::exchange_with`] returns: the shuffle's outcome, then
/// each hosted rank's producer report and consumer report, in rank
/// order.
pub type Exchanged<R, C> = (ShuffleOutcome, Vec<R>, Vec<C>);

/// A job run on one actor thread.
type Job = Box<dyn FnOnce() + Send>;

/// How one hosted rank gets a round's endpoint.
type Link = Box<dyn FnOnce() -> Result<Box<dyn transport::Endpoint>, RuntimeError> + Send>;

/// One hosted rank's side of one shuffle round, ready to run.
type RankJob<R, C> =
    Box<dyn FnOnce() -> Result<exchange::WorkerOutcome<R, C>, RuntimeError> + Send>;

struct Worker {
    tx: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// The worker-actor runtime: the ranks `first_rank..first_rank + hosted`
/// of a `config.workers`-wide exchange mesh.
pub struct Runtime {
    config: RuntimeConfig,
    first_rank: usize,
    hosted: usize,
    /// Under [`TransportKind::Tcp`], hosted rank `i`'s mesh membership.
    members: Vec<Arc<HostMesh>>,
    /// One actor per hosted rank; none when a single rank is hosted.
    actors: Vec<Worker>,
    /// The first rank whose actor died mid-job (a panicking route).
    dead: OnceLock<usize>,
    /// Recycled receive buffers shared by every shuffle this runtime
    /// runs; hand-outs tally on `runtime.buf.{reuses,allocs}`.
    pool: Arc<BufPool>,
}

impl Runtime {
    /// Hosts every rank of a `config.workers`-wide mesh: spawns the
    /// actor threads and, under [`TransportKind::Tcp`], binds the ranks'
    /// loopback [`HostMesh`] members.
    ///
    /// # Errors
    /// [`RuntimeError::Config`] on zero workers or zero `batch_tuples`;
    /// [`RuntimeError::Io`] if thread spawning or a loopback bind fails.
    pub fn new(config: RuntimeConfig) -> Result<Self, RuntimeError> {
        if config.workers == 0 {
            return Err(RuntimeError::Config(
                "runtime needs at least one worker".into(),
            ));
        }
        let mut members = Vec::new();
        if config.transport == TransportKind::Tcp {
            for mut member in HostMesh::loopback(config.workers)? {
                member.obs = config.obs.clone();
                member.recv_timeout = config.io_timeout;
                members.push(member);
            }
        }
        Runtime::hosting(0, config.workers, members, config)
    }

    /// Hosts the one rank of a joined multi-process mesh `member`; the
    /// exchange streams `opts`-shaped batches and reports into the
    /// member's own counters.
    ///
    /// # Errors
    /// [`RuntimeError::Config`] on an unjoined member or zero
    /// `batch_tuples`.
    pub fn rank_of(member: HostMesh, opts: exchange::ExchangeOpts) -> Result<Self, RuntimeError> {
        if member.workers() == 0 {
            return Err(RuntimeError::Config(
                "Runtime::rank_of() before join(): the peer address book is empty".into(),
            ));
        }
        let config = RuntimeConfig {
            workers: member.workers(),
            transport: TransportKind::Tcp,
            batch_tuples: opts.batch_tuples,
            wire_format: opts.format,
            io_timeout: member.recv_timeout,
            obs: member.obs.clone(),
            ..RuntimeConfig::default()
        };
        Runtime::hosting(member.rank(), 1, vec![member], config)
    }

    fn hosting(
        first_rank: usize,
        hosted: usize,
        members: Vec<HostMesh>,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        if config.batch_tuples == 0 {
            return Err(RuntimeError::Config(
                "batch_tuples must be at least 1 (a zero-row batch can never flush)".into(),
            ));
        }
        // A lone rank has no in-process peer to run beside: its side of
        // an exchange runs on the calling thread.
        let threads = if hosted > 1 { hosted } else { 0 };
        let mut actors = Vec::with_capacity(threads);
        for id in first_rank..first_rank + threads {
            let (tx, rx) = channel::<Job>();
            // The handle is kept in `Worker` and joined by `shutdown`.
            let handle = std::thread::Builder::new()
                .name(format!("parjoin-worker-{id}"))
                // xtask: allow(spawn)
                .spawn(move || {
                    // The actor loop: run jobs until the runtime drops
                    // the control channel.
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .map_err(|e| RuntimeError::Io(format!("spawning worker {id}: {e}")))?;
            actors.push(Worker {
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
            first_rank,
            hosted,
            members: members.into_iter().map(Arc::new).collect(),
            actors,
            dead: OnceLock::new(),
            pool,
        })
    }

    /// Global rank of hosted partition 0.
    pub fn first_rank(&self) -> usize {
        self.first_rank
    }

    /// Executes one exchange: every hosted rank routes its partition's
    /// rows through `route` and the runtime returns the repartitioned
    /// data plus the paper's per-producer/per-consumer tallies and real
    /// byte counts, all indexed by hosted partition.
    ///
    /// `parts[i]` is hosted rank `i`'s input partition, consumed by the
    /// exchange: each one is the trivial producer of
    /// [`Runtime::exchange`]. A shared partition (`Arc<Relation>`) is
    /// routed in place, so whoever else holds it keeps it. Row order of
    /// the output partitions is deterministic and identical across all
    /// transports (sources are concatenated in ascending order).
    ///
    /// # Errors
    /// Transport failures (peer death, timeouts, wire corruption) and
    /// [`RuntimeError::Config`] on a partition-count mismatch or a route
    /// built for another mesh width, refused before any rank starts.
    pub fn shuffle<P>(&self, parts: Vec<P>, route: &Route) -> Result<ShuffleOutcome, RuntimeError>
    where
        P: exchange::Produce<Report = ()> + Borrow<Relation> + Send + 'static,
    {
        if self.config.transport == TransportKind::Local {
            self.check_round(parts.len(), route)?;
            return Ok(local_shuffle(&parts, route));
        }
        Ok(self.exchange(parts, route)?.0)
    }

    /// Executes one exchange fed by one producer per hosted rank:
    /// `producers[i]` runs on hosted rank `i`'s side of the exchange and
    /// hands over its rows as it makes them, so a rank's rows are routed,
    /// batched and sent while it is still producing them, and never
    /// materialised on the sending side. Returns what [`Runtime::shuffle`]
    /// returns plus each producer's report, in rank order. Each
    /// destination receives exactly the rows, order and batches that
    /// shuffling the producers' materialised output would give it.
    ///
    /// Under [`TransportKind::Local`] the producers run one after the
    /// other into relations, which are then shuffled in memory.
    ///
    /// # Errors
    /// As [`Runtime::shuffle`], plus whatever a producer returns.
    pub fn exchange<P>(
        &self,
        producers: Vec<P>,
        route: &Route,
    ) -> Result<(ShuffleOutcome, Vec<P::Report>), RuntimeError>
    where
        P: exchange::Produce + Send + 'static,
        P::Report: Send + 'static,
    {
        let consumers = (producers.iter())
            .map(|p| exchange::Accumulate::new(p.arity(), route.workers()))
            .collect();
        let (out, reports, _) = self.exchange_with(producers, consumers, route)?;
        Ok((out, reports))
    }

    /// [`Runtime::exchange`] with one [`exchange::Consume`]r per hosted
    /// rank: `consumers[i]` takes every batch hosted rank `i` receives as
    /// its drain thread decodes it, and its partition is what the
    /// consumer makes of them. `per_consumer` still counts the tuples
    /// each rank received. Returns each consumer's report too, in rank
    /// order.
    ///
    /// Under [`TransportKind::Local`] each consumer gets its rank's whole
    /// shuffled partition as one batch from source 0.
    ///
    /// # Errors
    /// As [`Runtime::exchange`].
    pub fn exchange_with<P, C>(
        &self,
        producers: Vec<P>,
        consumers: Vec<C>,
        route: &Route,
    ) -> Result<Exchanged<P::Report, C::Report>, RuntimeError>
    where
        P: exchange::Produce + Send + 'static,
        P::Report: Send + 'static,
        C: exchange::Consume + Send + 'static,
        C::Report: Send + 'static,
    {
        self.check_round(producers.len(), route)?;
        self.check_round(consumers.len(), route)?;
        let config = &self.config;
        let width = config.workers;
        // How each hosted rank gets this round's endpoint: the channel
        // mesh is built whole and dealt out; a TCP member forms its own
        // on its rank's thread, concurrently with its peers.
        let links: Vec<Link> = match config.transport {
            TransportKind::Local => return self.local_exchange(producers, consumers, route),
            TransportKind::InProcess => {
                let (depth, timeout) = (config.channel_depth, config.io_timeout);
                transport::in_process_mesh(width, depth, timeout, &self.pool)
                    .into_iter()
                    .map(|endpoint| Box::new(move || Ok(endpoint)) as Link)
                    .collect()
            }
            TransportKind::Tcp => (self.members.iter())
                .map(|member| {
                    let (member, pool) = (Arc::clone(member), Arc::clone(&self.pool));
                    Box::new(move || member.endpoint(&pool)) as Link
                })
                .collect(),
        };
        let opts = exchange::ExchangeOpts {
            batch_tuples: config.batch_tuples,
            format: config.wire_format,
        };
        let route = Arc::new(route.clone());
        let jobs = (self.first_rank..).zip(producers.into_iter().zip(consumers));
        let jobs = jobs.zip(links).map(|((rank, sides), link)| {
            let route = Arc::clone(&route);
            let obs = config.obs.clone();
            let pool = Arc::clone(&self.pool);
            Box::new(move || exchange::run_worker(rank, sides, opts, link()?, &route, &obs, &pool))
                as RankJob<_, _>
        });
        let outcomes = self.run_jobs(jobs.collect())?;

        let hosted = outcomes.len();
        let mut out = ShuffleOutcome {
            parts: Vec::with_capacity(hosted),
            per_producer: Vec::with_capacity(hosted),
            per_consumer: Vec::with_capacity(hosted),
            bytes_sent: 0,
            bytes_received: 0,
        };
        let (mut reports, mut consumed) = (Vec::with_capacity(hosted), Vec::with_capacity(hosted));
        for worker in outcomes {
            out.per_producer.push(worker.sent_tuples);
            out.per_consumer.push(worker.received_tuples);
            out.bytes_sent += worker.bytes_sent;
            out.bytes_received += worker.bytes_received;
            out.parts.push(worker.received);
            reports.push(worker.report);
            consumed.push(worker.consumed);
        }
        Ok((out, reports, consumed))
    }

    /// Refuses a round before any rank starts: one input per hosted
    /// rank, and a route over this mesh's width.
    fn check_round(&self, inputs: usize, route: &Route) -> Result<(), RuntimeError> {
        let hosted = self.hosted;
        if inputs != hosted {
            return Err(RuntimeError::Config(format!(
                "shuffle got {inputs} partitions for {hosted} hosted rank(s)"
            )));
        }
        let width = self.config.workers;
        if route.workers() != width {
            return Err(RuntimeError::Config(format!(
                "a route over {} ranks on a {width}-rank mesh",
                route.workers()
            )));
        }
        Ok(())
    }

    /// [`Runtime::exchange_with`] under [`TransportKind::Local`]: each
    /// producer fills a relation on the calling thread, the relations are
    /// shuffled in memory, and each consumer takes its rank's partition.
    fn local_exchange<P, C>(
        &self,
        producers: Vec<P>,
        consumers: Vec<C>,
        route: &Route,
    ) -> Result<Exchanged<P::Report, C::Report>, RuntimeError>
    where
        P: exchange::Produce,
        C: exchange::Consume,
    {
        let mut parts = Vec::with_capacity(producers.len());
        let mut reports = Vec::with_capacity(producers.len());
        for (rank, producer) in (self.first_rank..).zip(producers) {
            let mut part = Relation::new(producer.arity());
            let lane = self.config.obs.trace.lane(rank as u32);
            reports.push(producer.produce(&mut part, &lane)?);
            parts.push(part);
        }
        let mut out = local_shuffle(&parts, route);
        let mut consumed = Vec::with_capacity(consumers.len());
        for (part, mut consumer) in out.parts.iter_mut().zip(consumers) {
            let (inbox, rows) = (consumer.inbox(0), part.len());
            if inbox.is_empty() {
                std::mem::swap(inbox, part);
            } else {
                inbox.extend_from(part);
            }
            consumer.received(0, rows);
            consumer.ended();
            let (received, report) = consumer.finish();
            *part = received;
            consumed.push(report);
        }
        Ok((out, reports, consumed))
    }

    /// Runs one job per hosted rank — on the rank's actor, or right here
    /// when a lone rank has none — and collects their outcomes in rank
    /// order.
    fn run_jobs<R: Send + 'static, C: Send + 'static>(
        &self,
        jobs: Vec<RankJob<R, C>>,
    ) -> Result<Vec<exchange::WorkerOutcome<R, C>>, RuntimeError> {
        if self.actors.is_empty() {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let gone =
            |rank: usize| RuntimeError::Disconnected(format!("worker {rank} thread is gone"));
        // A rank that died in an earlier round would leave the peers
        // dispatched before it waiting out the handshake deadline:
        // refuse the round before any of them starts.
        if let Some(&rank) = self.dead.get() {
            return Err(gone(rank));
        }
        let (res_tx, res_rx) = channel();
        for ((i, job), actor) in jobs.into_iter().enumerate().zip(&self.actors) {
            let res_tx = res_tx.clone();
            let job = Box::new(move || {
                let out = job();
                // The runtime may have given up (timeout) and dropped
                // the receiver; nothing useful to do with `out` then.
                let _ = res_tx.send((i, out));
            });
            actor.tx.send(job).map_err(|_| gone(self.first_rank + i))?;
        }
        drop(res_tx);
        let mut slots: Vec<_> = (0..self.actors.len()).map(|_| None).collect();
        for _ in 0..self.actors.len() {
            match res_rx.recv_timeout(self.config.io_timeout) {
                Ok((i, value)) => slots[i] = Some(value),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(RuntimeError::Timeout(format!(
                        "worker result missing after {:?}",
                        self.config.io_timeout
                    )))
                }
                // Every job is done or dropped, so a rank without a
                // result panicked in its job and took its actor with it.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // A dead rank is the cause; its peers' errors are its symptoms.
        if let Some(i) = slots.iter().position(Option::is_none) {
            let rank = *self.dead.get_or_init(|| self.first_rank + i);
            return Err(RuntimeError::Disconnected(format!(
                "worker {rank} died mid-job"
            )));
        }
        slots.into_iter().flatten().collect()
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
        for actor in &mut self.actors {
            let (dead_tx, _) = channel::<Job>();
            actor.tx = dead_tx;
        }
        let mut first_panic = None;
        for (i, actor) in self.actors.iter_mut().enumerate() {
            if let Some(handle) = actor.handle.take() {
                if handle.join().is_err() && first_panic.is_none() {
                    first_panic = Some(self.first_rank + i);
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

/// The in-memory shuffle ([`TransportKind::Local`]): every producer's
/// rows go to their destinations in ascending producer order, exactly
/// as the streaming transports deliver them.
///
/// Two passes over [`route::ROUTE_CHUNK`]-row chunks: the first maps
/// the rows to bases and counts rows per distinct base, from which each
/// destination's row count follows; the second maps them again and
/// scatters every row into a partition allocated at its exact final
/// size. Nullary rows route as a count: all of a producer's rows share
/// one base. The partitions carry no spare capacity into the sort,
/// build and probe that follow, and no per-row base outlives its chunk.
///
/// # Panics
/// Panics if a partition is narrower than a column the route reads.
pub fn local_shuffle<R: Borrow<Relation>>(parts: &[R], route: &Route) -> ShuffleOutcome {
    let p = route.workers();
    let arity = parts.first().map_or(0, |part| part.borrow().arity());
    let chunk = route::ROUTE_CHUNK * arity.max(1);
    let mut bases = Vec::with_capacity(route::ROUTE_CHUNK);
    // Pass 1: rows per distinct base (slot `p`: every rank), counted
    // per producer; `min` maps `ALL` to slot `p`.
    let mut per_base = vec![0u64; p + 1];
    let mut per_producer = vec![0u64; parts.len()];
    let mut hist = vec![0u64; p + 1];
    for (part, sent) in parts.iter().map(Borrow::borrow).zip(&mut per_producer) {
        debug_assert_eq!(part.arity(), arity, "partitions of one relation");
        hist.fill(0);
        if arity == 0 {
            hist[(route.nullary_base() as usize).min(p)] = part.len() as u64;
        }
        for rows in part.raw().chunks(chunk) {
            bases.clear();
            route.bases(rows, arity, &mut bases);
            bases
                .iter()
                .for_each(|&base| hist[(base as usize).min(p)] += 1);
        }
        for (slot, (&rows, total)) in hist.iter().zip(&mut per_base).enumerate() {
            let base = if slot == p { route::ALL } else { slot as u32 };
            *total += rows;
            *sent += rows * route.fan(base) as u64;
        }
    }
    let mut per_consumer = vec![0u64; p];
    for (slot, &rows) in per_base.iter().enumerate().filter(|(_, &n)| n > 0) {
        let base = if slot == p { route::ALL } else { slot as u32 };
        route.dests(base).for_each(|d| per_consumer[d] += rows);
    }
    // Pass 2: scatter in producer order into exact-size partitions.
    let mut outs: Vec<Vec<Value>> = (per_consumer.iter())
        .map(|&rows| Vec::with_capacity(rows as usize * arity))
        .collect();
    for rows in (parts.iter()).flat_map(|part| part.borrow().raw().chunks(chunk)) {
        bases.clear();
        route.bases(rows, arity, &mut bases);
        match arity {
            1 => scatter::<1>(route, rows, &bases, &mut outs),
            2 => scatter::<2>(route, rows, &bases, &mut outs),
            3 => scatter::<3>(route, rows, &bases, &mut outs),
            4 => scatter::<4>(route, rows, &bases, &mut outs),
            _ => {
                for (row, &base) in rows.chunks_exact(arity).zip(&bases) {
                    route
                        .dests(base)
                        .for_each(|d| outs[d].extend_from_slice(row));
                }
            }
        }
    }
    let parts = outs.into_iter().zip(&per_consumer).map(|(out, &rows)| {
        if arity == 0 {
            let mut part = Relation::new(0);
            part.push_nullary_rows(rows as usize);
            part
        } else {
            Relation::from_flat(arity, out)
        }
    });
    ShuffleOutcome {
        parts: parts.collect(),
        per_producer,
        per_consumer,
        bytes_sent: 0,
        bytes_received: 0,
    }
}

/// The scatter of [`local_shuffle`] for `A`-column rows: fixed-size
/// copies the compiler unrolls.
fn scatter<const A: usize>(route: &Route, rows: &[Value], bases: &[u32], outs: &mut [Vec<Value>]) {
    let (rows, _) = rows.as_chunks::<A>();
    for (row, &base) in rows.iter().zip(bases) {
        route
            .dests(base)
            .for_each(|d| outs[d].extend_from_slice(row));
    }
}
