//! The streaming exchange: one worker's side of a batched shuffle.
//!
//! Each worker splits its endpoint, drains its inbox from a dedicated
//! thread (so it can never deadlock against a full outgoing buffer), and
//! runs its [`Produce`]r, which feeds the send side its rows as it makes
//! them: a materialised partition hands over its rows at once, a join
//! hands over each piece of output as it probes. The send side takes
//! them [`ROUTE_CHUNK`] rows at a time: the [`Route`] maps the chunk to
//! bases, each row joins the pending window of every destination its
//! base names, and a window reaching `batch_tuples` rows is framed
//! ([`parjoin_common::wire`]) and sent. Nullary rows route as a count:
//! they all share one base. Batches depend on the rows and their order
//! only, never on how a producer splits them into pieces.
//! After the final partial batches the worker signals end-of-stream and
//! *drops its sender*, releasing its side of every connection, then joins
//! the drain thread.
//!
//! The drain thread is the worker's **single receive loop**: underneath
//! it, the transport demultiplexes every peer connection without
//! spawning per-peer readers, so an exchange costs exactly one receive
//! thread per worker (`runtime.rx.threads` counts them). Decoded frames
//! go back to the runtime's [`BufPool`] for the next batch.
//!
//! The send path writes the frame's stack header and the borrowed row
//! slice straight into the transport — no owned encode buffer per batch,
//! and the bytes it tallies are the bytes on the wire. A frame that
//! arrives intact but does not decode is a typed [`RuntimeError`] and
//! one count on `runtime.rx.decode_errors`, exactly like a frame the
//! transport itself rejects.
//!
//! The drain thread hands every decoded batch to the rank's [`Consume`]r,
//! the receive-side counterpart of [`Produce`]: the frame decodes onto
//! the relation the consumer names for its source, and the consumer is
//! then told how many rows arrived. The default, [`Accumulate`], keeps
//! each source's rows and concatenates the sources in ascending order
//! once every stream has ended. Because each source's batches arrive in
//! order (FIFO channels / one TCP connection per directed pair), the
//! resulting row order is *identical* to the sequential `Local` loop —
//! streaming transports are deterministic, not merely equivalent up to
//! reordering. A consumer that computes on its rows (a join) can use each
//! batch as it arrives and keep per source only what it makes of them;
//! it then answers for that order itself. Once the last stream ends the
//! drain thread hands the consumer back, and the worker's own thread
//! finishes it into the rank's partition.

use crate::error::RuntimeError;
use crate::metrics::RuntimeObs;
use crate::pool::BufPool;
use crate::route::{Route, ROUTE_CHUNK};
use crate::transport::{BatchSender, Endpoint};
use parjoin_common::{wire, Relation, Value, WireFormat};
use parjoin_obs::Lane;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exchange knobs beyond the mesh itself.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeOpts {
    /// Rows per streamed batch.
    pub batch_tuples: usize,
    /// Frame encoding on the wire.
    pub format: WireFormat,
}

/// Where a [`Produce`]r puts the rows it sends, in order: the
/// exchange's routing and batching on a streaming transport, a plain
/// relation on `Local`.
pub trait RowSink {
    /// Takes whole rows, flat, of the exchange's (non-zero) arity.
    ///
    /// # Errors
    /// Transport failures of the batches these rows complete.
    fn push_rows(&mut self, rows: &[Value]) -> Result<(), RuntimeError>;

    /// Takes `rows` nullary rows.
    ///
    /// # Errors
    /// As [`RowSink::push_rows`].
    fn push_nullary(&mut self, rows: usize) -> Result<(), RuntimeError>;

    /// Time this sink has spent so far inside the transport's send
    /// (blocked on a full destination included): what a producer
    /// subtracts from its own time to book compute.
    fn blocked(&self) -> Duration {
        Duration::ZERO
    }

    /// Takes every row of `rel`.
    ///
    /// # Errors
    /// As [`RowSink::push_rows`].
    fn push_relation(&mut self, rel: &Relation) -> Result<(), RuntimeError> {
        if rel.arity() == 0 {
            self.push_nullary(rel.len())
        } else {
            self.push_rows(rel.raw())
        }
    }
}

impl RowSink for Relation {
    fn push_rows(&mut self, rows: &[Value]) -> Result<(), RuntimeError> {
        self.extend_flat(rows);
        Ok(())
    }

    fn push_nullary(&mut self, rows: usize) -> Result<(), RuntimeError> {
        self.push_nullary_rows(rows);
        Ok(())
    }
}

/// One rank's side of an exchange: what it sends. A materialised
/// partition is the trivial producer; a producer that computes its rows
/// (a join) hands them over as it makes them, so they never have to be
/// materialised on the sending side.
pub trait Produce {
    /// What the producer reports besides its rows.
    type Report;

    /// Columns of every row it sends.
    fn arity(&self) -> usize;

    /// Feeds every row to `sink`, in order. `lane` is the rank's trace
    /// lane, inside its `shuffle` span.
    ///
    /// # Errors
    /// Whatever `sink` returns.
    fn produce(self, sink: &mut dyn RowSink, lane: &Lane) -> Result<Self::Report, RuntimeError>;
}

impl Produce for &Relation {
    type Report = ();

    fn arity(&self) -> usize {
        Relation::arity(self)
    }

    fn produce(self, sink: &mut dyn RowSink, _: &Lane) -> Result<(), RuntimeError> {
        sink.push_relation(self)
    }
}

impl Produce for Relation {
    type Report = ();

    fn arity(&self) -> usize {
        Relation::arity(self)
    }

    fn produce(self, sink: &mut dyn RowSink, lane: &Lane) -> Result<(), RuntimeError> {
        (&self).produce(sink, lane)
    }
}

/// A partition shared with a store that outlives the exchange (a mesh
/// worker's resident seed partitions): routed in place, never copied.
impl Produce for Arc<Relation> {
    type Report = ();

    fn arity(&self) -> usize {
        Relation::arity(self)
    }

    fn produce(self, sink: &mut dyn RowSink, _: &Lane) -> Result<(), RuntimeError> {
        sink.push_relation(&self)
    }
}

/// One rank's receiving side of an exchange: what its drain thread does
/// with each batch it decodes, in arrival order. Batches from one source
/// arrive in the order that source sent them; batches from different
/// sources interleave.
pub trait Consume {
    /// What the consumer reports besides its partition.
    type Report;

    /// The relation the next frame from source `src` decodes onto: its
    /// rows are appended, and the relation has the exchange's arity.
    fn inbox(&mut self, src: usize) -> &mut Relation;

    /// Takes the `rows` rows a frame from `src` has just appended to its
    /// [`Consume::inbox`].
    fn received(&mut self, src: usize, rows: usize);

    /// Every stream has ended: the last call on the drain thread.
    fn ended(&mut self) {}

    /// The rank's partition, and the report: called on the worker's
    /// own thread once the drain thread has handed the consumer back.
    fn finish(self) -> (Relation, Self::Report);
}

/// The default consumer: each source's rows, concatenated in ascending
/// source order at the end.
pub struct Accumulate {
    arity: usize,
    per_src: Vec<Relation>,
}

impl Accumulate {
    /// A consumer of `arity`-column rows from `sources` ranks.
    pub fn new(arity: usize, sources: usize) -> Self {
        Accumulate {
            arity,
            per_src: (0..sources).map(|_| Relation::new(arity)).collect(),
        }
    }
}

impl Consume for Accumulate {
    type Report = ();

    fn inbox(&mut self, src: usize) -> &mut Relation {
        &mut self.per_src[src]
    }

    fn received(&mut self, _: usize, _: usize) {}

    fn finish(self) -> (Relation, ()) {
        (concat(self.arity, self.per_src), ())
    }
}

/// `parts`, each of `arity` columns, in order as one relation: how a
/// rank's sources make its partition. A part holding every row is
/// returned as it is; otherwise the rows are copied into a relation of
/// exactly their total size.
pub fn concat(arity: usize, mut parts: Vec<Relation>) -> Relation {
    let total = parts.iter().map(Relation::len).sum();
    if let Some(i) = parts.iter().position(|p| p.len() == total && total > 0) {
        return parts.swap_remove(i);
    }
    let mut out = Relation::with_capacity(arity, total);
    for part in &parts {
        out.extend_from(part);
    }
    out
}

/// One worker's tallies from a streaming shuffle.
pub struct WorkerOutcome<R = (), C = ()> {
    /// What this worker's consumer made of the rows routed to it: with
    /// [`Accumulate`], those rows in deterministic source order.
    pub received: Relation,
    /// Tuples routed to this worker.
    pub received_tuples: u64,
    /// Tuples this worker sent (counting one per destination copy).
    pub sent_tuples: u64,
    /// Encoded batch bytes this worker sent.
    pub bytes_sent: u64,
    /// Encoded batch bytes this worker received.
    pub bytes_received: u64,
    /// What this worker's producer reported.
    pub report: R,
    /// What this worker's consumer reported.
    pub consumed: C,
}

/// The send side of one worker's exchange: routes the rows it is fed,
/// appends each to the pending window of every destination its base
/// names, and frames and sends a window once it holds `batch` rows.
struct Outbox<'a> {
    sender: Box<dyn BatchSender>,
    route: &'a Route,
    obs: &'a RuntimeObs,
    arity: usize,
    batch: usize,
    /// Per destination: the pending rows, flat, and their count.
    pending: Vec<(Vec<Value>, usize)>,
    bases: Vec<u32>,
    sent_tuples: u64,
    bytes_sent: u64,
    blocked: Duration,
}

impl Outbox<'_> {
    /// Frames destination `d`'s pending window and hands it to the
    /// transport, tallying `tx.{bytes,batches,wait_ns}`.
    fn flush(&mut self, d: usize) -> Result<(), RuntimeError> {
        let (flat, rows) = &mut self.pending[d];
        let header = wire::vectored_header(self.arity, *rows);
        let t0 = Instant::now();
        let sent = self.sender.send_vectored(d, header.as_bytes(), flat);
        let waited = t0.elapsed();
        self.blocked += waited;
        let obs = self.obs;
        obs.tx_wait_ns
            .add(waited.as_nanos().min(u128::from(u64::MAX)) as u64);
        let sent = sent?;
        obs.tx_bytes.add(sent);
        obs.tx_batches.inc();
        self.bytes_sent += sent;
        flat.clear();
        *rows = 0;
        Ok(())
    }

    /// Sends every partial window, then end-of-stream.
    fn finish(&mut self) -> Result<(), RuntimeError> {
        for d in 0..self.pending.len() {
            if self.pending[d].1 > 0 {
                self.flush(d)?;
            }
        }
        self.sender.finish()
    }
}

impl RowSink for Outbox<'_> {
    fn push_rows(&mut self, rows: &[Value]) -> Result<(), RuntimeError> {
        let (route, arity, batch) = (self.route, self.arity, self.batch);
        let mut bases = std::mem::take(&mut self.bases);
        for chunk in rows.chunks(ROUTE_CHUNK * arity) {
            bases.clear();
            route.bases(chunk, arity, &mut bases);
            for (row, &base) in chunk.chunks_exact(arity).zip(&bases) {
                self.sent_tuples += route.fan(base) as u64;
                for d in route.dests(base) {
                    let (flat, pending) = &mut self.pending[d];
                    flat.extend_from_slice(row);
                    *pending += 1;
                    if *pending >= batch {
                        self.flush(d)?;
                    }
                }
            }
        }
        self.bases = bases;
        Ok(())
    }

    fn push_nullary(&mut self, rows: usize) -> Result<(), RuntimeError> {
        // Every nullary row goes where the first one goes.
        let route = self.route;
        for d in route.dests(route.nullary_base()) {
            self.sent_tuples += rows as u64;
            let mut left = rows;
            while left > 0 {
                let pending = &mut self.pending[d].1;
                let take = left.min(self.batch - *pending);
                (*pending, left) = (*pending + take, left - take);
                if *pending >= self.batch {
                    self.flush(d)?;
                }
            }
        }
        Ok(())
    }

    fn blocked(&self) -> Duration {
        self.blocked
    }
}

/// Runs one worker's side of the exchange over a mesh of
/// `route.workers()` ranks to completion: `producer` feeds the send side
/// as it makes its rows, and the drain thread hands `consumer` every
/// batch as it decodes ([`Accumulate`] collects them) and tells it when
/// the last stream has ended; this thread then finishes it.
///
/// # Errors
/// Propagates transport failures (peer death, timeout) and wire-format
/// corruption from either direction of the stream.
///
/// # Panics
/// Panics if a produced row is narrower than a column the route reads.
pub fn run_worker<P, C>(
    id: usize,
    (producer, mut consumer): (P, C),
    opts: ExchangeOpts,
    endpoint: Box<dyn Endpoint>,
    route: &Route,
    obs: &RuntimeObs,
    pool: &Arc<BufPool>,
) -> Result<WorkerOutcome<P::Report, C::Report>, RuntimeError>
where
    P: Produce,
    C: Consume + Send + 'static,
    C::Report: Send + 'static,
{
    let arity = producer.arity();
    let workers = route.workers();
    // The worker's whole side of the exchange is one `shuffle` span on
    // its own trace lane; a producer nests its own spans inside it. The
    // drain thread records counters only: its work overlaps this span
    // on the same lane, and overlapping slices on one chrome-trace tid
    // render as garbage.
    let lane = obs.trace.lane(id as u32);
    let _span = lane.span("shuffle", "runtime");
    let (sender, mut receiver) = endpoint.split();

    let drain_obs = obs.clone();
    let drain_pool = Arc::clone(pool);
    let format = opts.format;
    // `drain` is joined below once this thread finishes sending.
    let drain = std::thread::Builder::new()
        .name(format!("parjoin-drain-{id}"))
        // xtask: allow(spawn)
        .spawn(move || -> Result<_, RuntimeError> {
            // This worker's one receive loop, however many peers feed it.
            drain_obs.rx_threads.inc();
            let (mut bytes, mut rows) = (0u64, 0u64);
            loop {
                let wait = Instant::now();
                let msg = receiver.recv();
                drain_obs
                    .rx_wait_ns
                    .add(wait.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                let Some((src, frame)) = msg? else { break };
                bytes += frame.len() as u64;
                drain_obs.rx_bytes.add(frame.len() as u64);
                drain_obs.rx_batches.inc();
                let decoded = wire::decode_frame_into(format, &frame, consumer.inbox(src))
                    .map_err(|e| {
                        drain_obs.rx_decode_errors.inc();
                        RuntimeError::Io(format!("frame from worker {src}: {e}"))
                    })?;
                // Decoded: recycle the buffer for the next frame.
                drain_pool.release(frame);
                rows += decoded as u64;
                consumer.received(src, decoded);
            }
            consumer.ended();
            Ok((consumer, bytes, rows))
        })
        .map_err(|e| RuntimeError::Io(e.to_string()))?;

    // Send side: produce, route, batch, stream. A zero batch flushes
    // every row, as a batch of one does; the nullary count needs a
    // positive step to terminate.
    let mut outbox = Outbox {
        sender,
        route,
        obs,
        arity,
        batch: opts.batch_tuples.max(1),
        pending: (0..workers).map(|_| (Vec::new(), 0)).collect(),
        bases: Vec::with_capacity(ROUTE_CHUNK),
        sent_tuples: 0,
        bytes_sent: 0,
        blocked: Duration::ZERO,
    };
    let send_result = producer
        .produce(&mut outbox, &lane)
        .and_then(|report| outbox.finish().map(|()| report));
    let (sent_tuples, bytes_sent) = (outbox.sent_tuples, outbox.bytes_sent);
    // Always release our side of every connection *before* joining the
    // drain thread: on the error path this is what unblocks peers (and
    // our own drain) instead of letting them wait out the full timeout.
    drop(outbox);
    let drain_result = drain
        .join()
        .map_err(|_| RuntimeError::Io(format!("drain thread of worker {id} panicked")));
    let report = send_result?;
    let (consumer, bytes_received, received_tuples) = drain_result??;
    let (received, consumed) = consumer.finish();
    Ok(WorkerOutcome {
        received,
        received_tuples,
        sent_tuples,
        bytes_sent,
        bytes_received,
        report,
        consumed,
    })
}
