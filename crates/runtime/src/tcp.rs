//! The TCP mesh: [`HostMesh`], one rank's membership.
//!
//! There is one mesh implementation. A worker process holds one
//! `HostMesh`; an in-process runtime under
//! [`TransportKind::Tcp`](crate::TransportKind) holds `p` of them on
//! loopback ([`HostMesh::loopback`]), one per rank, each forming its own
//! endpoint on its rank's thread — so both run the same dial / hello /
//! accept sequence, deadlines and round synchronization.
//!
//! Wire protocol per connection, after a 4-byte little-endian *hello*
//! carrying the sender's rank:
//!
//! ```text
//! frame := 0x00  u32-LE payload length  payload   (one encoded batch)
//!        | 0x01                                   (end-of-stream)
//! ```
//!
//! The mesh is `p × p` directed connections (self-loops included, so
//! byte accounting matches the in-process transport exactly). The receive side is an **event loop**: each worker's
//! receiver owns all `p` incoming sockets in nonblocking mode and
//! round-robin polls them through a per-connection framing state machine
//! ([`Stage`]), so an N-node mesh costs one receive thread per worker —
//! not the one-reader-thread-per-peer design this replaced.
//! Backpressure is TCP flow control: a receiver that stops polling lets
//! socket buffers fill until the sender's blocking `write` stalls.
//! Payload buffers come from the runtime's [`BufPool`], so steady-state
//! shuffles recycle instead of allocating per frame.
//!
//! Senders write frames as scatter/gather: a small stack prefix
//! (tag + length + batch header) followed by the borrowed payload slice,
//! chunked through a stack buffer into the socket's `BufWriter` — no
//! owned per-frame encode buffer. Connect races are absorbed by retry
//! with exponential backoff; graceful shutdown is the end-of-stream
//! frame followed by closing the write side, which the receiver's state
//! machine observes as EOF.
//!
//! Decode failures (a corrupt tag, a length prefix above the configured
//! frame limit, a stream truncated mid-frame) surface as
//! [`RuntimeError::Disconnected`] naming the cause, and each one bumps
//! the [`RuntimeObs::rx_decode_errors`] counter.

use crate::error::RuntimeError;
use crate::metrics::RuntimeObs;
use crate::pool::BufPool;
pub use crate::transport::MAX_FRAME_BYTES;
use crate::transport::{BatchReceiver, BatchSender, Endpoint};
use parjoin_common::Value;
use parjoin_obs::Counter;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TAG_BATCH: u8 = 0x00;
const TAG_EOS: u8 = 0x01;

/// Values converted to little-endian bytes per stack-buffer refill on
/// the vectored send path (8 KiB, matching `BufWriter`'s buffer).
const SEND_CHUNK_VALUES: usize = 1024;

/// Retry and deadline policy for mesh formation: how hard each worker
/// dials its peers and how long the accept side waits for hellos.
///
/// A deployment tunes formation patience per member through
/// [`HostMesh::handshake`]; the defaults suit loopback meshes where
/// listeners are bound microseconds before the first dial, and are what
/// an in-process runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeConfig {
    /// Dial attempts per peer before the connect is declared dead.
    pub connect_attempts: u32,
    /// First backoff delay between dial attempts.
    pub backoff_start: Duration,
    /// Ceiling the exponential backoff doubles up to — without it a
    /// long retry budget degenerates into multi-second sleeps.
    pub backoff_cap: Duration,
    /// Deadline for the accept-plus-hello phase of mesh formation: a
    /// peer that connects but never announces itself (or never connects
    /// at all) surfaces as [`RuntimeError::HandshakeTimeout`] once this
    /// expires instead of wedging the mesh forever.
    pub handshake_timeout: Duration,
}

impl Default for HandshakeConfig {
    fn default() -> HandshakeConfig {
        HandshakeConfig {
            connect_attempts: 10,
            backoff_start: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(128),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// Connects to `addr` under `policy`: up to `connect_attempts` tries
/// with exponential backoff from `backoff_start` capped at
/// `backoff_cap`. Loopback listeners bound a few microseconds ago can
/// still refuse the very first SYN; everything beyond a handful of
/// retries is a real failure.
///
/// # Errors
/// [`RuntimeError::Disconnected`] carrying the full attempt/backoff
/// history once retries are spent, so the terminal error shows what was
/// tried and how long each wait was — not just the last OS error.
pub fn connect_with_retry(
    addr: SocketAddr,
    policy: &HandshakeConfig,
) -> Result<TcpStream, RuntimeError> {
    use std::fmt::Write as _;
    let attempts = policy.connect_attempts.max(1);
    let mut delay = policy.backoff_start.max(Duration::from_micros(1));
    let mut history = String::new();
    for attempt in 1..=attempts {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if !history.is_empty() {
                    history.push_str("; ");
                }
                let _ = write!(history, "attempt {attempt}: {e}");
            }
        }
        if attempt < attempts {
            let _ = write!(history, " (backed off {delay:?})");
            std::thread::sleep(delay);
            delay = (delay * 2).min(policy.backoff_cap.max(Duration::from_micros(1)));
        }
    }
    Err(RuntimeError::Disconnected(format!(
        "connect to {addr} failed after {attempts} attempt(s) [{history}]"
    )))
}

/// Reads the 4-byte hello from a freshly accepted (blocking) stream
/// without ever outliving `deadline`: the socket read timeout is
/// re-armed with the remaining budget before every read, so a peer that
/// connects and then stalls — or trickles the hello one byte at a time —
/// cannot hold mesh formation past the deadline.
///
/// # Errors
/// [`RuntimeError::HandshakeTimeout`] when the deadline expires,
/// [`RuntimeError::Disconnected`] when the peer closes mid-hello.
fn read_hello(stream: &mut TcpStream, deadline: Instant) -> Result<u32, RuntimeError> {
    let io = |e: std::io::Error| RuntimeError::Io(e.to_string());
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown peer>".to_string());
    let start = Instant::now();
    let mut hello = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(RuntimeError::HandshakeTimeout {
                peer,
                waited: start.elapsed(),
            });
        }
        stream.set_read_timeout(Some(remaining)).map_err(io)?;
        match stream.read(&mut hello[got..]) {
            Ok(0) => {
                return Err(RuntimeError::Disconnected(format!(
                    "peer {peer} closed during the mesh handshake \
                     ({got} of 4 hello bytes arrived)"
                )));
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(RuntimeError::HandshakeTimeout {
                    peer,
                    waited: start.elapsed(),
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {} // EINTR: retry
            Err(e) => {
                return Err(RuntimeError::Disconnected(format!(
                    "peer {peer} failed during the mesh handshake: {e}"
                )));
            }
        }
    }
    stream.set_read_timeout(None).map_err(io)?;
    Ok(u32::from_le_bytes(hello))
}

/// Accepts exactly `expect` connections on `listener` and reads each
/// one's hello, all under a single `timeout` deadline. Hellos must name
/// a worker below `workers`, and no two connections may announce the
/// same worker id — the second claimant is rejected with a typed error
/// naming both sockets rather than silently replacing the first.
/// Returns the connections sorted by announcing worker (accept order is
/// a race).
fn accept_hellos(
    listener: &TcpListener,
    expect: usize,
    workers: usize,
    timeout: Duration,
) -> Result<Vec<Conn>, RuntimeError> {
    let io = |e: std::io::Error| RuntimeError::Io(e.to_string());
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<listener>".to_string());
    // Nonblocking accept lets the loop enforce the deadline itself;
    // `TcpListener` has no native accept timeout.
    listener.set_nonblocking(true).map_err(io)?;
    let start = Instant::now();
    let deadline = start + timeout;
    let mut seen: Vec<Option<String>> = vec![None; workers];
    let mut conns: Vec<Conn> = Vec::with_capacity(expect);
    let mut idle_rounds = 0u32;
    while conns.len() < expect {
        match listener.accept() {
            Ok((mut stream, remote)) => {
                idle_rounds = 0;
                // The hello read below bounds itself with a socket read
                // timeout, which needs the stream in blocking mode.
                stream.set_nonblocking(false).map_err(io)?;
                let src = read_hello(&mut stream, deadline)? as usize;
                if src >= workers {
                    return Err(RuntimeError::Io(format!(
                        "hello names worker {src}, but the mesh has {workers}"
                    )));
                }
                if let Some(first) = &seen[src] {
                    return Err(RuntimeError::DuplicateHello {
                        worker: src,
                        first: first.clone(),
                        second: remote.to_string(),
                    });
                }
                seen[src] = Some(remote.to_string());
                stream.set_nonblocking(true).map_err(io)?;
                conns.push(Conn::new(stream, src));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    let missing = expect - conns.len();
                    return Err(RuntimeError::HandshakeTimeout {
                        peer: format!("{missing} peer(s) that never connected to {local}"),
                        waited: start.elapsed(),
                    });
                }
                idle_rounds += 1;
                crate::transport::idle_backoff(idle_rounds);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {} // EINTR: retry
            Err(e) => return Err(io(e)),
        }
    }
    // Leave a persistent listener in its default blocking state for the
    // next formation round.
    listener.set_nonblocking(false).map_err(io)?;
    conns.sort_by_key(|c| c.src);
    Ok(conns)
}

/// The wire protocol announces each sender with a `u32` hello, so a mesh
/// wider than `u32::MAX` workers cannot be represented on the wire.
///
/// # Errors
/// [`RuntimeError::Config`] when `workers` does not fit.
fn check_mesh_width(workers: usize) -> Result<u32, RuntimeError> {
    u32::try_from(workers).map_err(|_| {
        RuntimeError::Config(format!(
            "a TCP mesh of {workers} workers exceeds the wire protocol's u32 hello"
        ))
    })
}

/// One rank's standing membership in a data mesh: a persistent listener
/// for this rank plus the address book of every rank's listener, forming
/// one fresh `p × p` endpoint per shuffle round.
///
/// A member produces only its own rank's endpoint, dialing its peers
/// from the address book — other processes on a host list, or the other
/// ranks of this process on loopback. Cloning is cheap and yields a
/// second handle on the same listener, address book and counters.
/// Round synchronization needs no extra protocol: a rank dials round
/// `k + 1` only after draining every round-`k` end-of-stream marker,
/// which its peers send only after completing their own round-`k`
/// formation — so a listener's backlog never mixes rounds.
#[derive(Clone)]
pub struct HostMesh {
    listener: Arc<TcpListener>,
    rank: usize,
    peers: Vec<SocketAddr>,
    /// Counter bundle the per-round endpoints report into.
    pub obs: RuntimeObs,
    /// Per-frame size limit senders enforce and receivers reject above.
    pub max_frame: u32,
    /// Dial-retry and hello-deadline policy for each round's formation.
    pub handshake: HandshakeConfig,
    /// Receive deadline once a round's mesh is formed.
    pub recv_timeout: Duration,
}

impl HostMesh {
    /// Binds this process's data listener on `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral loopback port, or a concrete
    /// `host:port` from a deployment's host list). Rank and peer list
    /// arrive later via [`join`](Self::join), once the control plane
    /// has distributed every member's address.
    ///
    /// # Errors
    /// [`RuntimeError::Io`] when the bind fails.
    pub fn bind(addr: &str) -> Result<HostMesh, RuntimeError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| RuntimeError::Io(format!("bind {addr}: {e}")))?;
        Ok(HostMesh {
            listener: Arc::new(listener),
            rank: 0,
            peers: Vec::new(),
            obs: RuntimeObs::default(),
            max_frame: MAX_FRAME_BYTES,
            handshake: HandshakeConfig::default(),
            recv_timeout: Duration::from_secs(30),
        })
    }

    /// A whole `workers`-rank mesh on loopback, bound and joined: member
    /// `r` is rank `r`. Each member must form its round endpoints on a
    /// thread of its own ([`endpoint`](Self::endpoint)).
    ///
    /// # Errors
    /// [`RuntimeError::Io`] when a bind fails, [`RuntimeError::Config`]
    /// when the mesh is wider than the wire protocol's `u32` hello.
    pub fn loopback(workers: usize) -> Result<Vec<HostMesh>, RuntimeError> {
        let mut members = (0..workers)
            .map(|_| HostMesh::bind("127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()?;
        let peers = members
            .iter()
            .map(HostMesh::local_addr)
            .collect::<Result<Vec<_>, _>>()?;
        for (rank, member) in members.iter_mut().enumerate() {
            member.join(rank, peers.clone())?;
        }
        Ok(members)
    }

    /// The address this mesh member's listener actually bound — what a
    /// worker reports to the coordinator so the full address book can
    /// be assembled and shipped inside each plan fragment.
    ///
    /// # Errors
    /// [`RuntimeError::Io`] when the local address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr, RuntimeError> {
        self.listener
            .local_addr()
            .map_err(|e| RuntimeError::Io(e.to_string()))
    }

    /// Adopts this member's rank and the full peer address book
    /// (`peers[r]` is rank `r`'s data listener; `peers[rank]` is this
    /// process).
    ///
    /// # Errors
    /// [`RuntimeError::Config`] when `rank` is out of range or the mesh
    /// is wider than the wire protocol's `u32` hello.
    pub fn join(&mut self, rank: usize, peers: Vec<SocketAddr>) -> Result<(), RuntimeError> {
        if rank >= peers.len() {
            return Err(RuntimeError::Config(format!(
                "rank {rank} out of range for a {}-host mesh",
                peers.len()
            )));
        }
        check_mesh_width(peers.len())?;
        self.rank = rank;
        self.peers = peers;
        Ok(())
    }

    /// This member's rank in the mesh.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Mesh width (the number of ranks in the address book).
    pub fn workers(&self) -> usize {
        self.peers.len()
    }

    /// Forms this rank's endpoint for one shuffle round: dial every
    /// peer (self-loop included, so byte accounting matches the
    /// in-process transports), announce this rank with the 4-byte
    /// hello, then accept the `p` inbound connections under the
    /// handshake deadline. Every rank must call this concurrently — the
    /// dial side completes against peers' listener backlogs, so
    /// dial-all-then-accept-all cannot deadlock.
    ///
    /// # Errors
    /// [`RuntimeError::Disconnected`] when a peer cannot be dialed
    /// (with the full retry history), [`RuntimeError::HandshakeTimeout`]
    /// / [`RuntimeError::DuplicateHello`] from the accept side, and
    /// [`RuntimeError::Config`] when called before [`join`](Self::join).
    pub fn endpoint(&self, pool: &Arc<BufPool>) -> Result<Box<dyn Endpoint>, RuntimeError> {
        let io = |e: std::io::Error| RuntimeError::Io(e.to_string());
        let p = self.peers.len();
        if p == 0 {
            return Err(RuntimeError::Config(
                "HostMesh::endpoint() before join(): the peer address book is empty".to_string(),
            ));
        }
        check_mesh_width(p)?;
        let mut senders = Vec::with_capacity(p);
        for &addr in &self.peers {
            let stream = connect_with_retry(addr, &self.handshake)?;
            stream.set_nodelay(true).map_err(io)?;
            let mut writer = BufWriter::new(stream);
            // Exact cast: check_mesh_width proved the rank fits.
            writer
                .write_all(&(self.rank as u32).to_le_bytes())
                .map_err(io)?;
            writer.flush().map_err(io)?;
            senders.push(writer);
        }
        let conns = accept_hellos(&self.listener, p, p, self.handshake.handshake_timeout)?;
        Ok(Box::new(TcpEndpoint {
            senders,
            conns,
            timeout: self.recv_timeout,
            obs: self.obs.clone(),
            pool: Arc::clone(pool),
            max_frame: self.max_frame,
        }))
    }
}

struct TcpEndpoint {
    senders: Vec<BufWriter<TcpStream>>,
    conns: Vec<Conn>,
    timeout: Duration,
    obs: RuntimeObs,
    pool: Arc<BufPool>,
    max_frame: u32,
}

impl Endpoint for TcpEndpoint {
    fn split(self: Box<Self>) -> (Box<dyn BatchSender>, Box<dyn BatchReceiver>) {
        (
            Box::new(TcpSender {
                senders: self.senders,
                flushes: self.obs.tx_flushes,
                max_frame: self.max_frame,
            }),
            Box::new(TcpReceiver {
                conns: self.conns,
                pool: self.pool,
                decode_errors: self.obs.rx_decode_errors,
                timeout: self.timeout,
                max_frame: self.max_frame,
                cursor: 0,
            }),
        )
    }
}

struct TcpSender {
    senders: Vec<BufWriter<TcpStream>>,
    flushes: Counter,
    max_frame: u32,
}

impl TcpSender {
    fn check_frame(&self, bytes: u64) -> Result<(), RuntimeError> {
        if bytes > u64::from(self.max_frame) {
            return Err(RuntimeError::FrameTooLarge {
                bytes,
                limit: u64::from(self.max_frame),
            });
        }
        Ok(())
    }
}

impl BatchSender for TcpSender {
    fn send_vectored(
        &mut self,
        dest: usize,
        header: &[u8],
        values: &[Value],
    ) -> Result<u64, RuntimeError> {
        // Refuse a frame the peer would reject as corrupt.
        let frame_len = header.len() + values.len() * 8;
        self.check_frame(frame_len as u64)?;
        let w = &mut self.senders[dest];
        let write = (|| {
            let mut prefix = [0u8; 5];
            prefix[0] = TAG_BATCH;
            // Exact: check_frame proved frame_len fits the u32 limit.
            prefix[1..5].copy_from_slice(&(frame_len as u32).to_le_bytes());
            w.write_all(&prefix)?;
            w.write_all(header)?;
            // The workspace forbids unsafe, so the arena slice cannot be
            // reinterpreted as bytes in place; stream it through a stack
            // chunk instead — constant memory, no per-frame allocation.
            let mut chunk = [0u8; SEND_CHUNK_VALUES * 8];
            for run in values.chunks(SEND_CHUNK_VALUES) {
                for (i, &v) in run.iter().enumerate() {
                    chunk[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
                }
                w.write_all(&chunk[..run.len() * 8])?;
            }
            // Flush per frame: batches are already sized for throughput,
            // and prompt delivery keeps peer receive loops busy instead
            // of stalling on buffered bytes.
            w.flush()
        })();
        self.flushes.inc();
        write.map_err(|e| RuntimeError::Disconnected(format!("write to worker {dest}: {e}")))?;
        Ok(frame_len as u64)
    }

    fn finish(&mut self) -> Result<(), RuntimeError> {
        for w in &mut self.senders {
            // Best-effort: a dead peer cannot be waiting for our marker.
            let _ = w.write_all(&[TAG_EOS]).and_then(|()| w.flush());
            self.flushes.inc();
        }
        Ok(())
    }
}

/// Where one incoming connection stands in the framing protocol.
enum Stage {
    /// Waiting for the next frame tag.
    Tag,
    /// Collecting the 4-byte length prefix.
    Len { buf: [u8; 4], got: usize },
    /// Collecting a payload into a pooled buffer.
    Payload { buf: Vec<u8>, got: usize },
    /// The peer signalled end-of-stream.
    Eos,
    /// The peer hung up (EOF between frames) or the stream was poisoned.
    Dead,
}

struct Conn {
    stream: TcpStream,
    src: usize,
    stage: Stage,
}

/// One nonblocking read step.
enum ReadStep {
    Data(usize),
    WouldBlock,
    /// EOF or a hard socket error (peer reset) — the stream is over
    /// either way; which protocol stage it struck decides whether that
    /// is a clean hang-up or corruption.
    Eof,
}

fn read_nb(stream: &mut TcpStream, buf: &mut [u8]) -> ReadStep {
    loop {
        match stream.read(buf) {
            Ok(0) => return ReadStep::Eof,
            Ok(n) => return ReadStep::Data(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ReadStep::WouldBlock,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {} // EINTR: retry
            Err(_) => return ReadStep::Eof,
        }
    }
}

/// What polling one connection produced.
enum Polled {
    /// A complete frame.
    Frame(Vec<u8>),
    /// State advanced (bytes consumed, EOS seen, clean EOF) but no
    /// complete frame yet.
    Progress,
    /// Nothing available without blocking.
    Idle,
    /// Protocol violation; the payload names the cause.
    Corrupt(String),
}

impl Conn {
    fn new(stream: TcpStream, src: usize) -> Conn {
        Conn {
            stream,
            src,
            stage: Stage::Tag,
        }
    }

    fn terminal(&self) -> bool {
        matches!(self.stage, Stage::Eos | Stage::Dead)
    }

    /// Advances this connection's state machine as far as the socket
    /// allows without blocking.
    fn poll(&mut self, pool: &BufPool, max_frame: u32) -> Polled {
        let src = self.src;
        let mut advanced = false;
        loop {
            match &mut self.stage {
                Stage::Eos | Stage::Dead => return Polled::Idle,
                Stage::Tag => {
                    let mut tag = [0u8; 1];
                    match read_nb(&mut self.stream, &mut tag) {
                        ReadStep::WouldBlock => {
                            return if advanced {
                                Polled::Progress
                            } else {
                                Polled::Idle
                            };
                        }
                        ReadStep::Eof => {
                            // Clean EOF between frames: the peer died (or
                            // closed after EOS) — not a decode error.
                            self.stage = Stage::Dead;
                            return Polled::Progress;
                        }
                        ReadStep::Data(_) => match tag[0] {
                            TAG_EOS => {
                                self.stage = Stage::Eos;
                                return Polled::Progress;
                            }
                            TAG_BATCH => {
                                advanced = true;
                                self.stage = Stage::Len {
                                    buf: [0u8; 4],
                                    got: 0,
                                };
                            }
                            other => {
                                return Polled::Corrupt(format!(
                                    "corrupt frame tag {other:#04x} from worker {src} (expected \
                                     batch or end-of-stream)"
                                ));
                            }
                        },
                    }
                }
                Stage::Len { buf, got } => match read_nb(&mut self.stream, &mut buf[*got..]) {
                    ReadStep::WouldBlock => {
                        return if advanced {
                            Polled::Progress
                        } else {
                            Polled::Idle
                        };
                    }
                    ReadStep::Eof => {
                        return Polled::Corrupt(format!(
                            "stream from worker {src} truncated in a length prefix"
                        ));
                    }
                    ReadStep::Data(n) => {
                        advanced = true;
                        *got += n;
                        if *got == 4 {
                            let len = u32::from_le_bytes(*buf);
                            if len > max_frame {
                                return Polled::Corrupt(format!(
                                    "frame from worker {src} declares {len} bytes, above the \
                                     {max_frame}-byte limit"
                                ));
                            }
                            if len == 0 {
                                // Degenerate empty frame: complete as-is
                                // (an empty read would misreport EOF).
                                self.stage = Stage::Tag;
                                return Polled::Frame(pool.acquire());
                            }
                            let mut payload = pool.acquire();
                            payload.resize(len as usize, 0);
                            self.stage = Stage::Payload {
                                buf: payload,
                                got: 0,
                            };
                        }
                    }
                },
                Stage::Payload { buf, got } => {
                    let len = buf.len();
                    match read_nb(&mut self.stream, &mut buf[*got..]) {
                        ReadStep::WouldBlock => {
                            return if advanced {
                                Polled::Progress
                            } else {
                                Polled::Idle
                            };
                        }
                        ReadStep::Eof => {
                            return Polled::Corrupt(format!(
                                "stream from worker {src} truncated mid-frame ({len}-byte \
                                 payload never completed)"
                            ));
                        }
                        ReadStep::Data(n) => {
                            advanced = true;
                            *got += n;
                            if *got == len {
                                let frame = std::mem::take(buf);
                                self.stage = Stage::Tag;
                                return Polled::Frame(frame);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The demultiplexing receive loop over all incoming connections: the
/// single receive thread a worker costs, however wide the mesh.
struct TcpReceiver {
    conns: Vec<Conn>,
    pool: Arc<BufPool>,
    decode_errors: Counter,
    timeout: Duration,
    max_frame: u32,
    cursor: usize,
}

impl TcpReceiver {
    /// Peers that have not reached end-of-stream (the legacy receiver's
    /// `eos_left`, used by every error message).
    fn outstanding(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| !matches!(c.stage, Stage::Eos))
            .count()
    }
}

impl BatchReceiver for TcpReceiver {
    fn recv(&mut self) -> Result<Option<(usize, Vec<u8>)>, RuntimeError> {
        let n = self.conns.len();
        let deadline = Instant::now() + self.timeout;
        let mut idle_rounds = 0u32;
        loop {
            let mut progressed = false;
            for step in 0..n {
                let i = (self.cursor + step) % n;
                match self.conns[i].poll(&self.pool, self.max_frame) {
                    Polled::Frame(frame) => {
                        // Resume *after* this connection next time so one
                        // chatty peer cannot starve the others.
                        self.cursor = (i + 1) % n;
                        return Ok(Some((self.conns[i].src, frame)));
                    }
                    Polled::Progress => progressed = true,
                    Polled::Idle => {}
                    Polled::Corrupt(cause) => {
                        self.decode_errors.inc();
                        self.conns[i].stage = Stage::Dead;
                        return Err(RuntimeError::Disconnected(format!(
                            "corrupt stream: {cause}; {} peer(s) were still outstanding",
                            self.outstanding()
                        )));
                    }
                }
            }
            let dead = self
                .conns
                .iter()
                .filter(|c| matches!(c.stage, Stage::Dead))
                .count();
            if self.conns.iter().all(Conn::terminal) {
                if dead == 0 {
                    return Ok(None); // every peer reached end-of-stream
                }
                return Err(RuntimeError::Disconnected(format!(
                    "{dead} peer(s) closed before end-of-stream"
                )));
            }
            if progressed {
                idle_rounds = 0;
                continue;
            }
            if Instant::now() >= deadline {
                return Err(RuntimeError::Timeout(format!(
                    "no frame within {:?}; {} peer(s) never finished",
                    self.timeout,
                    self.outstanding()
                )));
            }
            idle_rounds += 1;
            crate::transport::idle_backoff(idle_rounds);
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

    /// A one-rank mesh: the self-loop is a real socket pair.
    fn lone_member() -> HostMesh {
        let mut members = HostMesh::loopback(1).expect("mesh");
        members.pop().expect("rank 0")
    }

    /// A handshake policy with short waits for fault-injection tests.
    fn fast_handshake(attempts: u32, timeout: Duration) -> HandshakeConfig {
        HandshakeConfig {
            connect_attempts: attempts,
            backoff_start: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            handshake_timeout: timeout,
        }
    }

    #[test]
    fn connect_with_retry_gives_up_with_full_history() {
        // Port 1 on loopback is essentially never listening; three quick
        // attempts must fail fast, and the terminal Disconnected error
        // must carry every attempt and every backoff wait.
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let start = std::time::Instant::now();
        let err = connect_with_retry(addr, &fast_handshake(3, Duration::from_secs(1)));
        match err {
            Err(RuntimeError::Disconnected(msg)) => {
                assert!(msg.contains("after 3 attempt(s)"), "counts attempts: {msg}");
                assert!(msg.contains("attempt 1:"), "history has attempt 1: {msg}");
                assert!(msg.contains("attempt 2:"), "history has attempt 2: {msg}");
                assert!(msg.contains("attempt 3:"), "history has attempt 3: {msg}");
                assert!(msg.contains("backed off"), "history has backoffs: {msg}");
            }
            other => panic!("expected Disconnected with history, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn connect_backoff_is_capped() {
        // 6 failed attempts with an uncapped doubling from 1ms would
        // sleep 1+2+4+8+16 = 31ms; the 2ms cap keeps it under ~10ms of
        // configured sleep. Assert the cap via the recorded history.
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let policy = HandshakeConfig {
            connect_attempts: 6,
            backoff_start: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            handshake_timeout: Duration::from_secs(1),
        };
        let err = connect_with_retry(addr, &policy);
        match err {
            Err(RuntimeError::Disconnected(msg)) => {
                assert!(
                    !msg.contains("backed off 4ms"),
                    "doubling must stop at the 2ms cap: {msg}"
                );
                assert!(msg.contains("backed off 2ms"), "cap is reached: {msg}");
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn silent_peer_hello_is_a_handshake_timeout_not_a_hang() {
        // Regression for the unbounded accept-side read_exact: a peer
        // that connects but never sends its hello must surface as
        // HandshakeTimeout within the deadline.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _silent = TcpStream::connect(addr).expect("connect");
        let start = std::time::Instant::now();
        let err = accept_hellos(&listener, 1, 2, Duration::from_millis(200));
        match err {
            Err(RuntimeError::HandshakeTimeout { peer, waited }) => {
                assert!(peer.contains("127.0.0.1"), "names the peer: {peer}");
                assert!(
                    waited >= Duration::from_millis(150),
                    "waited out: {waited:?}"
                );
            }
            Err(other) => panic!("expected HandshakeTimeout, got {other:?}"),
            Ok(_) => panic!("expected HandshakeTimeout, got a formed mesh"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "must not hang past the deadline"
        );
    }

    #[test]
    fn peer_death_mid_hello_is_a_typed_disconnect() {
        // A peer that sends half its hello and dies must surface as a
        // prompt Disconnected naming the handshake, never a hang.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut dying = TcpStream::connect(addr).expect("connect");
        dying.write_all(&[0x01, 0x00]).expect("half a hello");
        drop(dying);
        let start = std::time::Instant::now();
        let err = accept_hellos(&listener, 1, 2, Duration::from_secs(5));
        match err {
            Err(RuntimeError::Disconnected(msg)) => {
                assert!(msg.contains("handshake"), "names the phase: {msg}");
                assert!(msg.contains("2 of 4"), "counts the partial hello: {msg}");
            }
            Err(other) => panic!("expected Disconnected, got {other:?}"),
            Ok(_) => panic!("expected Disconnected, got a formed mesh"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "prompt, not a timeout"
        );
    }

    #[test]
    fn duplicate_hello_is_rejected_naming_both_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut first = TcpStream::connect(addr).expect("connect first");
        first.write_all(&1u32.to_le_bytes()).expect("hello 1");
        let mut second = TcpStream::connect(addr).expect("connect second");
        second
            .write_all(&1u32.to_le_bytes())
            .expect("hello 1 again");
        let first_addr = first.local_addr().expect("addr").to_string();
        let second_addr = second.local_addr().expect("addr").to_string();
        let err = accept_hellos(&listener, 2, 2, Duration::from_secs(5));
        match err {
            Err(RuntimeError::DuplicateHello {
                worker,
                first: f,
                second: s,
            }) => {
                assert_eq!(worker, 1);
                // Accept order between the two dials is a race; the
                // error must name both sockets, in either order.
                let mut got = [f, s];
                let mut want = [first_addr, second_addr];
                got.sort();
                want.sort();
                assert_eq!(got, want, "error names both claimant sockets");
            }
            Err(other) => panic!("expected DuplicateHello, got {other:?}"),
            Ok(_) => panic!("expected DuplicateHello, got a formed mesh"),
        }
    }

    #[test]
    fn absent_peer_is_a_handshake_timeout_within_deadline() {
        // A worker that never connects at all: the accept deadline must
        // expire with a typed error that counts the missing peers.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let start = std::time::Instant::now();
        let err = accept_hellos(&listener, 3, 3, Duration::from_millis(150));
        match err {
            Err(RuntimeError::HandshakeTimeout { peer, .. }) => {
                assert!(peer.contains("3 peer(s)"), "counts the missing: {peer}");
                assert!(peer.contains("never connected"), "names the fault: {peer}");
            }
            Err(other) => panic!("expected HandshakeTimeout, got {other:?}"),
            Ok(_) => panic!("expected HandshakeTimeout, got a formed mesh"),
        }
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn host_mesh_round_trips_frames_between_ranks() {
        // Two HostMesh members on loopback, each in its own thread
        // (formation requires all ranks dialing concurrently), exchange
        // one frame each way per round, across two rounds on the same
        // persistent listeners.
        let mut members = HostMesh::loopback(2).expect("mesh").into_iter();
        let m0 = members.next().expect("rank 0");
        let m1 = members.next().expect("rank 1");

        let run = |mesh: HostMesh, rank: usize| {
            thread::spawn(move || {
                let pool = test_pool();
                let mut seen = Vec::new();
                for round in 0..2u8 {
                    let (mut tx, mut rx) = mesh.endpoint(&pool).expect("endpoint").split();
                    tx.send_vectored(1 - rank, &[round, rank as u8], &[])
                        .expect("send");
                    tx.finish().expect("finish");
                    drop(tx);
                    while let Some(msg) = rx.recv().expect("recv") {
                        seen.push(msg);
                    }
                }
                seen
            })
        };
        let t0 = run(m0, 0);
        let t1 = run(m1, 1);
        assert_eq!(
            t0.join().expect("rank 0"),
            vec![(1, vec![0, 1]), (1, vec![1, 1])]
        );
        assert_eq!(
            t1.join().expect("rank 1"),
            vec![(0, vec![0, 0]), (0, vec![1, 0])]
        );
    }

    #[test]
    fn host_mesh_endpoint_before_join_is_a_config_error() {
        let mesh = HostMesh::bind("127.0.0.1:0").expect("bind");
        match mesh.endpoint(&test_pool()) {
            Err(RuntimeError::Config(m)) => {
                assert!(m.contains("join"), "error names the missing step: {m}");
            }
            Err(other) => panic!("expected Config error, got {other:?}"),
            Ok(_) => panic!("an unjoined mesh must refuse to form an endpoint"),
        }
    }

    #[test]
    fn vectored_send_round_trips() {
        let (mut tx, mut rx) = lone_member().endpoint(&test_pool()).expect("mesh").split();
        let values = [5u64, u64::MAX, 0];
        let len = tx.send_vectored(0, &[0xAB, 0xCD], &values).expect("send");
        assert_eq!(len, 2 + 24);
        tx.finish().expect("finish");
        drop(tx);
        let (src, frame) = rx.recv().expect("recv").expect("frame");
        assert_eq!(src, 0);
        let mut expect = vec![0xAB, 0xCD];
        for v in values {
            expect.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(frame, expect);
        assert!(rx.recv().expect("eos").is_none());
    }

    #[test]
    fn mesh_counts_flushes() {
        let mesh = lone_member();
        let obs = mesh.obs.clone();
        let (mut tx, mut rx) = mesh.endpoint(&test_pool()).expect("mesh").split();
        tx.send_vectored(0, &[1, 2], &[]).expect("send");
        tx.finish().expect("finish");
        drop(tx);
        while rx.recv().expect("recv").is_some() {}
        // One per frame plus one per end-of-stream marker.
        assert_eq!(obs.tx_flushes.get(), 2);
    }

    #[test]
    fn mesh_width_is_validated_not_asserted() {
        assert!(check_mesh_width(4).is_ok());
        let err = check_mesh_width(usize::MAX);
        assert!(
            matches!(err, Err(RuntimeError::Config(ref m)) if m.contains("u32")),
            "oversized mesh must be a typed config error: {err:?}"
        );
    }

    /// A connected (writer, reader) TCP pair on loopback.
    fn pipe() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let w = TcpStream::connect(addr).expect("connect");
        let (r, _) = listener.accept().expect("accept");
        (w, r)
    }

    /// Drives the event-loop receiver over bytes written by `write`,
    /// returning complete frames, the terminal result, and the
    /// decode-error count. The lone connection claims to be worker 1.
    #[allow(clippy::type_complexity)]
    fn recv_poisoned(
        write: impl FnOnce(&mut TcpStream),
    ) -> (
        Vec<(usize, Vec<u8>)>,
        Result<Option<(usize, Vec<u8>)>, RuntimeError>,
        u64,
    ) {
        let (mut w, r) = pipe();
        r.set_nonblocking(true).expect("nonblocking");
        let errors = Counter::new();
        let mut receiver = TcpReceiver {
            conns: vec![Conn::new(r, 1)],
            pool: test_pool(),
            decode_errors: errors.clone(),
            timeout: Duration::from_secs(5),
            max_frame: MAX_FRAME_BYTES,
            cursor: 0,
        };
        write(&mut w);
        drop(w);
        let mut frames = Vec::new();
        let last = loop {
            match receiver.recv() {
                Ok(Some(frame)) => frames.push(frame),
                other => break other,
            }
        };
        (frames, last, errors.get())
    }

    #[test]
    fn corrupt_tag_is_reported_with_cause() {
        let (frames, last, errors) = recv_poisoned(|w| {
            w.write_all(&[0x7f]).expect("write");
        });
        assert!(frames.is_empty());
        assert_eq!(errors, 1);
        match last {
            Err(RuntimeError::Disconnected(msg)) => {
                assert!(msg.contains("corrupt stream"), "prefixed cause: {msg}");
                assert!(msg.contains("0x7f"), "cause names the tag: {msg}");
                assert!(msg.contains("worker 1"), "cause names the peer: {msg}");
                assert!(msg.contains("1 peer(s)"), "error counts peers: {msg}");
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_reported() {
        let (frames, last, errors) = recv_poisoned(|w| {
            w.write_all(&[TAG_BATCH]).expect("tag");
            w.write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes())
                .expect("len");
        });
        assert!(frames.is_empty());
        assert_eq!(errors, 1);
        match last {
            Err(RuntimeError::Disconnected(msg)) => {
                assert!(msg.contains("limit"), "cause names the limit: {msg}");
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_reported() {
        let (frames, last, errors) = recv_poisoned(|w| {
            w.write_all(&[TAG_BATCH]).expect("tag");
            w.write_all(&100u32.to_le_bytes()).expect("len");
            w.write_all(&[0u8; 10]).expect("partial payload");
        });
        assert!(frames.is_empty());
        assert_eq!(errors, 1);
        match last {
            Err(RuntimeError::Disconnected(msg)) => {
                assert!(
                    msg.contains("truncated mid-frame"),
                    "cause names truncation: {msg}"
                );
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_before_eos_is_a_disconnect_not_a_decode_error() {
        // Peer death *between* frames is not stream corruption: no
        // decode error is counted, and the receiver reports a plain
        // disconnect once no live peer remains.
        let (frames, last, errors) = recv_poisoned(|_| {});
        assert!(frames.is_empty());
        assert_eq!(errors, 0);
        match last {
            Err(RuntimeError::Disconnected(msg)) => {
                assert!(
                    msg.contains("closed before end-of-stream"),
                    "plain disconnect expected: {msg}"
                );
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn frames_before_poison_still_arrive() {
        // The state machine must hand over complete frames already
        // received before reporting the poisoned tail.
        let (frames, last, errors) = recv_poisoned(|w| {
            w.write_all(&[TAG_BATCH]).expect("tag");
            w.write_all(&3u32.to_le_bytes()).expect("len");
            w.write_all(&[9, 8, 7]).expect("payload");
            w.write_all(&[0x5a]).expect("poison tag");
        });
        assert_eq!(frames, vec![(1, vec![9, 8, 7])]);
        assert_eq!(errors, 1);
        assert!(matches!(last, Err(RuntimeError::Disconnected(_))));
    }

    #[test]
    fn oversized_send_is_a_typed_error_not_a_panic() {
        let (w, _r) = pipe();
        let mut sender = TcpSender {
            senders: vec![BufWriter::new(w)],
            flushes: Counter::new(),
            max_frame: MAX_FRAME_BYTES,
        };
        let frame = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        let err = sender.send_vectored(0, &frame, &[]);
        assert!(
            matches!(
                err,
                Err(RuntimeError::FrameTooLarge { bytes, limit })
                    if bytes == u64::from(MAX_FRAME_BYTES) + 1 && limit == u64::from(MAX_FRAME_BYTES)
            ),
            "oversized frame must be rejected up front: {err:?}"
        );
        // A frame at the limit boundary is still representable.
        assert!(u32::try_from(MAX_FRAME_BYTES as usize).is_ok());
    }

    #[test]
    fn configured_frame_limit_applies_to_vectored_sends() {
        let (w, _r) = pipe();
        let mut sender = TcpSender {
            senders: vec![BufWriter::new(w)],
            flushes: Counter::new(),
            max_frame: 16,
        };
        let values = [0u64; 4]; // 32 payload bytes + header > 16
        let err = sender.send_vectored(0, &[0, 1, 2], &values);
        assert!(
            matches!(
                err,
                Err(RuntimeError::FrameTooLarge {
                    bytes: 35,
                    limit: 16
                })
            ),
            "configured limit must apply: {err:?}"
        );
    }

    #[test]
    fn peer_death_mid_stream_is_a_prompt_disconnect_not_a_hang() {
        // End-to-end: on a live 2-rank mesh, rank 0's sender drops
        // without ever writing end-of-stream (the "peer died" shape).
        // Worker 0's receiver must fail with Disconnected well before
        // the 30-second mesh timeout — never hang waiting it out.
        let mut members = HostMesh::loopback(2).expect("mesh").into_iter();
        let a = members.next().expect("rank 0");
        let b = members.next().expect("rank 1");

        let peer = thread::spawn(move || {
            let (mut tx, mut rx) = b.endpoint(&test_pool()).expect("endpoint 1").split();
            tx.finish().expect("finish");
            drop(tx);
            // Drain until our own stream ends or errors; outcome unused.
            while let Ok(Some(_)) = rx.recv() {}
        });

        let (tx_a, mut rx_a) = a.endpoint(&test_pool()).expect("endpoint 0").split();
        let start = std::time::Instant::now();
        drop(tx_a); // dies without end-of-stream
        let err = rx_a.recv();
        assert!(
            matches!(err, Err(RuntimeError::Disconnected(_))),
            "peer death mid-stream must be a descriptive error: {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "must not wait out the 30s mesh timeout"
        );
        peer.join().expect("worker 1");
    }
}
