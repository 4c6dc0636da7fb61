//! The streaming exchange: one worker's side of a batched shuffle.
//!
//! Each worker splits its endpoint, drains its inbox from a dedicated
//! thread (so it can never deadlock against a full outgoing buffer), and
//! walks its partition once, [`ROUTE_CHUNK`] rows at a time: the
//! [`Route`] maps the chunk to bases, each row joins the pending window
//! of every destination its base names, and a window reaching
//! `batch_tuples` rows is framed ([`parjoin_common::wire`]) and sent.
//! Nullary rows route as a count: they all share one base.
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
//! The drain thread accumulates arriving batches **per source** and the
//! final partition concatenates sources in ascending order. Because each
//! source's batches arrive in order (FIFO channels / one TCP connection
//! per directed pair), the resulting row order is *identical* to the
//! sequential `Local` loop — streaming transports are deterministic, not
//! merely equivalent up to reordering.

use crate::error::RuntimeError;
use crate::metrics::RuntimeObs;
use crate::pool::BufPool;
use crate::route::{Route, ROUTE_CHUNK};
use crate::transport::{BatchSender, Endpoint};
use parjoin_common::{wire, Relation, Value, WireFormat};
use std::sync::Arc;
use std::time::Instant;

/// Exchange knobs beyond the mesh itself.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeOpts {
    /// Rows per streamed batch.
    pub batch_tuples: usize,
    /// Frame encoding on the wire.
    pub format: WireFormat,
}

/// One worker's tallies from a streaming shuffle.
pub struct WorkerOutcome {
    /// The rows routed to this worker, in deterministic source order.
    pub received: Relation,
    /// Tuples this worker sent (counting one per destination copy).
    pub sent_tuples: u64,
    /// Encoded batch bytes this worker sent.
    pub bytes_sent: u64,
    /// Encoded batch bytes this worker received.
    pub bytes_received: u64,
}

/// Frames one pending batch and hands it to the transport, tallying
/// `tx.{bytes,batches}`. Returns the bytes sent.
fn flush_batch(
    sender: &mut dyn BatchSender,
    dest: usize,
    arity: usize,
    rows: usize,
    flat: &[Value],
    obs: &RuntimeObs,
) -> Result<u64, RuntimeError> {
    let header = wire::vectored_header(arity, rows);
    let sent = sender.send_vectored(dest, header.as_bytes(), flat)?;
    obs.tx_bytes.add(sent);
    obs.tx_batches.inc();
    Ok(sent)
}

/// Runs one worker's side of the exchange over a mesh of
/// `route.workers()` ranks to completion.
///
/// # Errors
/// Propagates transport failures (peer death, timeout) and wire-format
/// corruption from either direction of the stream.
///
/// # Panics
/// Panics if `part` is narrower than a column the route reads.
pub fn run_worker(
    id: usize,
    part: &Relation,
    opts: ExchangeOpts,
    endpoint: Box<dyn Endpoint>,
    route: &Route,
    obs: &RuntimeObs,
    pool: &Arc<BufPool>,
) -> Result<WorkerOutcome, RuntimeError> {
    let arity = part.arity();
    let workers = route.workers();
    // The worker's whole side of the exchange is one `shuffle` span on
    // its own trace lane. The drain thread records counters only: its
    // work overlaps this span on the same lane, and overlapping slices
    // on one chrome-trace tid render as garbage.
    let lane = obs.trace.lane(id as u32);
    let _span = lane.span("shuffle", "runtime");
    let (mut sender, mut receiver) = endpoint.split();

    let drain_obs = obs.clone();
    let drain_pool = Arc::clone(pool);
    let format = opts.format;
    // `drain` is joined below once this thread finishes sending.
    let drain = std::thread::Builder::new()
        .name(format!("parjoin-drain-{id}"))
        // xtask: allow(spawn)
        .spawn(move || -> Result<(Vec<Relation>, u64), RuntimeError> {
            // This worker's one receive loop, however many peers feed it.
            drain_obs.rx_threads.inc();
            let mut per_src: Vec<Relation> = (0..workers).map(|_| Relation::new(arity)).collect();
            let mut bytes = 0u64;
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
                wire::decode_frame_into(format, &frame, &mut per_src[src]).map_err(|e| {
                    drain_obs.rx_decode_errors.inc();
                    RuntimeError::Io(format!("frame from worker {src}: {e}"))
                })?;
                // Decoded: recycle the buffer for the next frame.
                drain_pool.release(frame);
            }
            Ok((per_src, bytes))
        })
        .map_err(|e| RuntimeError::Io(e.to_string()))?;

    // Send side: route, batch, stream.
    let mut pending: Vec<(Vec<Value>, usize)> = (0..workers).map(|_| (Vec::new(), 0)).collect();
    let mut sent_tuples = 0u64;
    let mut bytes_sent = 0u64;
    let send_result = (|| -> Result<(), RuntimeError> {
        // A zero batch flushes every row, as a batch of one does; the
        // nullary count below needs a positive step to terminate.
        let batch = opts.batch_tuples.max(1);
        if arity == 0 {
            // Every nullary row goes where the first one goes.
            let base = route.nullary_base();
            for d in route.dests(base) {
                let (_, rows) = &mut pending[d];
                let mut left = part.len();
                sent_tuples += left as u64;
                while left > 0 {
                    let take = left.min(batch - *rows);
                    (*rows, left) = (*rows + take, left - take);
                    if *rows >= batch {
                        bytes_sent += flush_batch(&mut *sender, d, 0, *rows, &[], obs)?;
                        *rows = 0;
                    }
                }
            }
        }
        let mut bases = Vec::with_capacity(ROUTE_CHUNK);
        for chunk in part.raw().chunks(ROUTE_CHUNK * arity.max(1)) {
            bases.clear();
            route.bases(chunk, arity, &mut bases);
            for (row, &base) in chunk.chunks_exact(arity).zip(&bases) {
                sent_tuples += route.fan(base) as u64;
                for d in route.dests(base) {
                    let (flat, rows) = &mut pending[d];
                    flat.extend_from_slice(row);
                    *rows += 1;
                    if *rows >= batch {
                        bytes_sent += flush_batch(&mut *sender, d, arity, *rows, flat, obs)?;
                        flat.clear();
                        *rows = 0;
                    }
                }
            }
        }
        for (d, (flat, rows)) in pending.iter_mut().enumerate() {
            if *rows > 0 {
                bytes_sent += flush_batch(&mut *sender, d, arity, *rows, flat, obs)?;
                flat.clear();
                *rows = 0;
            }
        }
        sender.finish()
    })();
    // Always release our side of every connection *before* joining the
    // drain thread: on the error path this is what unblocks peers (and
    // our own drain) instead of letting them wait out the full timeout.
    drop(sender);
    let drain_result = drain
        .join()
        .map_err(|_| RuntimeError::Io(format!("drain thread of worker {id} panicked")));
    send_result?;
    let (per_src, bytes_received) = drain_result??;

    let total: usize = per_src.iter().map(Relation::len).sum();
    let mut received = Relation::with_capacity(arity, total);
    for src in &per_src {
        received.extend_from(src);
    }
    Ok(WorkerOutcome {
        received,
        sent_tuples,
        bytes_sent,
        bytes_received,
    })
}
