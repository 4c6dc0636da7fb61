//! The endpoint abstraction and the in-process implementation.
//!
//! A shuffle round runs over a full point-to-point *mesh* of `p` ranks:
//! one [`Endpoint`] per rank, each able to send opaque frames to every
//! peer (itself included — self-traffic flows through the same path so
//! accounting is uniform) and to receive `(source, frame)` pairs until
//! every peer has signalled end-of-stream. There are two ways to form
//! one: [`in_process_mesh`] builds all `p` channel endpoints at once,
//! and each member of a [`HostMesh`](crate::HostMesh) forms its own over
//! TCP.
//!
//! Endpoints split into independent sender and receiver halves so a
//! worker can drain its inbox from a second thread while its main loop
//! routes and sends. That split is what makes the bounded buffers safe:
//! a worker never blocks on a full outgoing channel while also refusing
//! to empty its own inbox, so the classic all-send-no-receive exchange
//! deadlock cannot form.
//!
//! Receivers are *demultiplexers*: one receive loop per worker polls all
//! `p` incoming streams (a select-style loop over per-pair channels
//! here, readiness-polled nonblocking sockets for TCP), so the whole
//! mesh costs one receive thread per worker — not one per peer.
//!
//! The send side has one shape: [`BatchSender::send_vectored`] takes a
//! small borrowed header plus the flat row slice borrowed straight from
//! the relation arena — the scatter/gather form that lets streaming
//! transports write rows without materializing an owned encode buffer
//! per batch.

use crate::error::RuntimeError;
use crate::pool::BufPool;
use parjoin_common::{wire, Value};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sanity cap on a single frame (64 MiB): a larger length prefix means a
/// corrupt or hostile stream, not a real batch. A deployment lowers it
/// per mesh member through [`HostMesh::max_frame`](crate::HostMesh).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Consecutive empty polls a demux receive loop spins (yielding) before
/// it starts sleeping between polls.
const IDLE_SPINS: u32 = 64;

/// Sleep between polls once a receive loop has gone idle. Short enough
/// to stay invisible next to batch decode times, long enough to keep an
/// idle mesh off the scheduler.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Which transport a runtime (or engine cluster) should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Degenerate in-memory path: the shuffle runs as a sequential loop
    /// on the caller thread, moving no bytes. This reproduces the
    /// original simulator semantics exactly (same tallies, same row
    /// order) and is the default.
    #[default]
    Local,
    /// Bounded `mpsc` channels between worker threads; frames are moved,
    /// never copied. Backpressure comes from the channel bound.
    InProcess,
    /// Length-prefixed framed batches over TCP sockets. In process this
    /// is `p` [`HostMesh`](crate::HostMesh) members on loopback, one per
    /// rank — the same formation, handshake and round synchronization a
    /// multi-process deployment runs.
    Tcp,
}

impl TransportKind {
    /// True for transports that stream encoded batches (and therefore
    /// report non-zero byte tallies).
    pub fn is_streaming(self) -> bool {
        !matches!(self, TransportKind::Local)
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Local => write!(f, "local"),
            TransportKind::InProcess => write!(f, "in-process"),
            TransportKind::Tcp => write!(f, "tcp"),
        }
    }
}

/// One worker's attachment to the mesh.
pub trait Endpoint: Send {
    /// Splits into independently-threaded sender and receiver halves.
    fn split(self: Box<Self>) -> (Box<dyn BatchSender>, Box<dyn BatchReceiver>);
}

/// The sending half of an endpoint.
///
/// Dropping the sender (after [`finish`](Self::finish)) releases its
/// side of every peer connection, which is what lets receivers detect a
/// crashed peer instead of waiting forever.
pub trait BatchSender: Send {
    /// Sends one batch to worker `dest` as `header` followed by `values`
    /// as little-endian words, without the caller materializing an owned
    /// frame, returning the on-wire frame length in bytes. Blocks when the destination's buffer is
    /// full (backpressure). Stream transports write both slices
    /// directly; channel transports assemble the frame in a pooled
    /// buffer.
    ///
    /// # Errors
    /// [`RuntimeError::Disconnected`] if the destination is gone;
    /// [`RuntimeError::FrameTooLarge`] when the frame exceeds the
    /// transport's configured limit.
    fn send_vectored(
        &mut self,
        dest: usize,
        header: &[u8],
        values: &[Value],
    ) -> Result<u64, RuntimeError>;

    /// Signals end-of-stream to every peer and flushes buffered writes.
    ///
    /// Delivery is best-effort: a peer that already terminated cannot be
    /// waiting for our marker, so failures to reach individual peers are
    /// ignored (the receive side reports the disconnect instead).
    ///
    /// # Errors
    /// Reserved for non-peer failures; the built-in transports currently
    /// always return `Ok`.
    fn finish(&mut self) -> Result<(), RuntimeError>;
}

/// The receiving half of an endpoint.
pub trait BatchReceiver: Send {
    /// Receives the next `(source, frame)` pair, or `Ok(None)` once all
    /// peers have signalled end-of-stream.
    ///
    /// # Errors
    /// [`RuntimeError::Timeout`] when nothing arrives within the mesh
    /// timeout; [`RuntimeError::Disconnected`] when peers vanish before
    /// their end-of-stream marker.
    fn recv(&mut self) -> Result<Option<(usize, Vec<u8>)>, RuntimeError>;
}

/// Backoff ladder for a demux receive loop: spin (yield) while the mesh
/// is hot, sleep once it has gone idle.
pub(crate) fn idle_backoff(idle_rounds: u32) {
    if idle_rounds < IDLE_SPINS {
        std::thread::yield_now();
    } else {
        std::thread::sleep(IDLE_SLEEP);
    }
}

/// Appends `header` and `values` as little-endian words to a frame
/// buffer (the owned-frame assembly of the channel transport).
fn assemble_frame(buf: &mut Vec<u8>, header: &[u8], values: &[Value]) {
    buf.extend_from_slice(header);
    wire::extend_le_words(buf, values);
}

/// `None` frame is the end-of-stream marker; the source is implied by
/// which per-pair channel carried the message.
type PairMsg = Option<Vec<u8>>;

/// The bounded-channel mesh between threads of this process: one
/// `sync_channel` per *directed pair*, demultiplexed by a select-style
/// poll loop on the receive side. Endpoint `i` is rank `i`'s.
///
/// `depth` bounds each directed pair's in-flight frames (the
/// backpressure window); `timeout` caps how long a receiver waits
/// without progress; `pool` recycles frame buffers across the mesh so
/// steady-state shuffles stop allocating per frame.
pub fn in_process_mesh(
    workers: usize,
    depth: usize,
    timeout: Duration,
    pool: &Arc<BufPool>,
) -> Vec<Box<dyn Endpoint>> {
    // chans[src][dst]: the directed channel from src to dst. Built
    // column-wise so endpoint `i` can collect its receive column (from
    // every src) and its send row (to every dst).
    let mut txs: Vec<Vec<SyncSender<PairMsg>>> = (0..workers).map(|_| Vec::new()).collect();
    let mut rx_cols: Vec<Vec<Receiver<PairMsg>>> = (0..workers).map(|_| Vec::new()).collect();
    for src_txs in txs.iter_mut() {
        for rx_col in rx_cols.iter_mut() {
            let (tx, rx) = sync_channel(depth.max(1));
            src_txs.push(tx);
            rx_col.push(rx);
        }
    }
    txs.into_iter()
        .zip(rx_cols)
        .map(|(peers, rxs)| {
            Box::new(InProcessEndpoint {
                peers,
                rxs,
                timeout,
                pool: Arc::clone(pool),
            }) as Box<dyn Endpoint>
        })
        .collect()
}

struct InProcessEndpoint {
    peers: Vec<SyncSender<PairMsg>>,
    rxs: Vec<Receiver<PairMsg>>,
    timeout: Duration,
    pool: Arc<BufPool>,
}

impl Endpoint for InProcessEndpoint {
    fn split(self: Box<Self>) -> (Box<dyn BatchSender>, Box<dyn BatchReceiver>) {
        (
            Box::new(InProcessSender {
                peers: self.peers,
                pool: self.pool,
            }),
            Box::new(InProcessReceiver {
                peers: self
                    .rxs
                    .into_iter()
                    .map(|rx| Peer {
                        rx,
                        state: PeerState::Live,
                    })
                    .collect(),
                timeout: self.timeout,
                cursor: 0,
            }),
        )
    }
}

struct InProcessSender {
    peers: Vec<SyncSender<PairMsg>>,
    pool: Arc<BufPool>,
}

impl BatchSender for InProcessSender {
    fn send_vectored(
        &mut self,
        dest: usize,
        header: &[u8],
        values: &[Value],
    ) -> Result<u64, RuntimeError> {
        // Channels ship owned messages, so the frame is assembled — but
        // in a pooled buffer that the receive side recycles, so steady
        // state allocates nothing.
        let mut frame = self.pool.acquire();
        assemble_frame(&mut frame, header, values);
        let len = frame.len() as u64;
        self.peers[dest]
            .send(Some(frame))
            .map_err(|_| RuntimeError::Disconnected(format!("worker {dest} inbox closed")))?;
        Ok(len)
    }

    fn finish(&mut self) -> Result<(), RuntimeError> {
        for tx in &self.peers {
            // A closed inbox means that peer is already gone; it cannot
            // be waiting for our end-of-stream marker.
            let _ = tx.send(None);
        }
        Ok(())
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum PeerState {
    /// Still expected to produce frames or an end-of-stream marker.
    Live,
    /// Signalled end-of-stream; its channel is done.
    Eos,
    /// Hung up without end-of-stream (the peer died mid-shuffle).
    Dead,
}

struct Peer {
    rx: Receiver<PairMsg>,
    state: PeerState,
}

/// Select-style demux over the per-pair channels: one loop round-robins
/// `try_recv` across all live peers, so the whole inbox costs a single
/// receive thread regardless of mesh width.
struct InProcessReceiver {
    peers: Vec<Peer>,
    timeout: Duration,
    cursor: usize,
}

impl BatchReceiver for InProcessReceiver {
    fn recv(&mut self) -> Result<Option<(usize, Vec<u8>)>, RuntimeError> {
        let p = self.peers.len();
        let deadline = Instant::now() + self.timeout;
        let mut idle_rounds = 0u32;
        loop {
            let mut live = 0usize;
            let mut dead = 0usize;
            let mut progressed = false;
            for step in 0..p {
                let src = (self.cursor + step) % p;
                let peer = &mut self.peers[src];
                match peer.state {
                    PeerState::Eos => continue,
                    PeerState::Dead => {
                        dead += 1;
                        continue;
                    }
                    PeerState::Live => {}
                }
                match peer.rx.try_recv() {
                    Ok(Some(frame)) => {
                        // Resume the scan *after* this peer next time so
                        // one chatty peer cannot starve the others.
                        self.cursor = (src + 1) % p;
                        return Ok(Some((src, frame)));
                    }
                    Ok(None) => {
                        peer.state = PeerState::Eos;
                        progressed = true;
                    }
                    Err(TryRecvError::Empty) => live += 1,
                    Err(TryRecvError::Disconnected) => {
                        peer.state = PeerState::Dead;
                        dead += 1;
                        progressed = true;
                    }
                }
            }
            if live == 0 {
                if dead == 0 {
                    return Ok(None); // every peer reached end-of-stream
                }
                return Err(RuntimeError::Disconnected(format!(
                    "{dead} peer(s) dropped before end-of-stream"
                )));
            }
            if progressed {
                idle_rounds = 0;
                continue;
            }
            if Instant::now() >= deadline {
                let outstanding = self
                    .peers
                    .iter()
                    .filter(|peer| peer.state != PeerState::Eos)
                    .count();
                return Err(RuntimeError::Timeout(format!(
                    "no batch within {:?}; {outstanding} peer(s) never finished",
                    self.timeout
                )));
            }
            idle_rounds += 1;
            idle_backoff(idle_rounds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn test_pool() -> Arc<BufPool> {
        Arc::new(BufPool::detached())
    }

    #[test]
    fn in_process_mesh_round_trips_frames() {
        let eps = in_process_mesh(2, 4, Duration::from_secs(5), &test_pool());
        let mut eps = eps.into_iter();
        let a = eps.next().expect("endpoint 0");
        let b = eps.next().expect("endpoint 1");

        let ta = thread::spawn(move || {
            let (mut tx, mut rx) = a.split();
            tx.send_vectored(1, &[1, 2, 3], &[]).expect("send");
            tx.finish().expect("finish");
            drop(tx);
            let mut got = Vec::new();
            while let Some(msg) = rx.recv().expect("recv") {
                got.push(msg);
            }
            got
        });
        let tb = thread::spawn(move || {
            let (mut tx, mut rx) = b.split();
            tx.send_vectored(0, &[9], &[]).expect("send");
            tx.finish().expect("finish");
            drop(tx);
            let mut got = Vec::new();
            while let Some(msg) = rx.recv().expect("recv") {
                got.push(msg);
            }
            got
        });
        let got_a = ta.join().expect("worker 0");
        let got_b = tb.join().expect("worker 1");
        assert_eq!(got_a, vec![(1, vec![9])]);
        assert_eq!(got_b, vec![(0, vec![1, 2, 3])]);
    }

    #[test]
    fn receiver_errors_when_peer_drops_without_eos() {
        let eps = in_process_mesh(2, 4, Duration::from_secs(5), &test_pool());
        let mut eps = eps.into_iter();
        let a = eps.next().expect("endpoint 0");
        let b = eps.next().expect("endpoint 1");
        drop(b); // peer dies before sending anything
        let (mut tx, mut rx) = a.split();
        tx.finish().expect("own eos still works");
        drop(tx);
        assert!(matches!(rx.recv(), Err(RuntimeError::Disconnected(_))));
    }

    #[test]
    fn vectored_send_assembles_header_and_payload() {
        let pool = test_pool();
        let eps = in_process_mesh(1, 4, Duration::from_secs(5), &pool);
        let (mut tx, mut rx) = eps.into_iter().next().expect("endpoint").split();
        let values = [1u64, u64::MAX];
        let len = tx.send_vectored(0, &[0xAA, 0xBB], &values).expect("send");
        assert_eq!(len, 2 + 16);
        tx.finish().expect("finish");
        drop(tx);
        let (src, frame) = rx.recv().expect("recv").expect("frame");
        assert_eq!(src, 0);
        let mut expect = vec![0xAA, 0xBB];
        expect.extend_from_slice(&1u64.to_le_bytes());
        expect.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(frame, expect);
        assert!(rx.recv().expect("eos").is_none());
    }

    #[test]
    fn vectored_send_reuses_pooled_buffers() {
        let pool = test_pool();
        let eps = in_process_mesh(1, 4, Duration::from_secs(5), &pool);
        let (mut tx, mut rx) = eps.into_iter().next().expect("endpoint").split();
        for _ in 0..3 {
            tx.send_vectored(0, &[1, 2, 3], &[]).expect("send");
            let (_, frame) = rx.recv().expect("recv").expect("frame");
            pool.release(frame); // what the exchange drain does post-decode
        }
        assert!(
            pool.idle() >= 1,
            "frames must cycle back onto the free list"
        );
    }
}
