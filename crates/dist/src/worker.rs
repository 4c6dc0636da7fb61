//! The worker side of the control plane: accept one coordinator,
//! announce the data-plane listener, execute shipped fragments, stream
//! results back, and keep the seed partitions the fragments ship for
//! the rest of the session.

use crate::error::DistError;
use crate::proto::{self, WorkerStats};
use parjoin_common::wire::control::{self, FrameKind, DEFAULT_FRAME_LIMIT};
use parjoin_common::wire::encode_vectored;
use parjoin_common::Relation;
use parjoin_engine::{execute_fragment, Fragment, PartitionRef};
use parjoin_runtime::{HandshakeConfig, HostMesh};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The seed partitions a worker keeps between the fragments of one
/// coordinator session, keyed by the content fingerprint the fragments
/// name them by: exactly the partitions the latest fragment named. Only
/// fragments change it, so the coordinator always knows what it holds,
/// and it never holds more than one query's partitions.
#[derive(Default)]
struct PartitionStore {
    parts: HashMap<u128, Arc<Relation>>,
}

impl PartitionStore {
    /// Replaces the store with the partitions `frag` names — its inline
    /// ones, and the named ones kept from the store — and resolves each
    /// name in `frag` to the partition it names.
    ///
    /// # Errors
    /// The refusal to send when `frag` names a partition the store does
    /// not hold; the store is then empty.
    fn admit(&mut self, frag: &mut Fragment) -> Result<(), String> {
        let mut held = std::mem::take(&mut self.parts);
        for p in &frag.parts {
            if let PartitionRef::Inline { fp, part } = p {
                self.parts.insert(*fp, Arc::clone(part));
            }
        }
        for p in &mut frag.parts {
            if let PartitionRef::Resident(fp) = *p {
                let part = match self.parts.get(&fp) {
                    Some(part) => Arc::clone(part),
                    None => held.remove(&fp).ok_or_else(|| {
                        self.parts.clear();
                        format!(
                            "fragment names partition {fp:032x}, which this worker does not hold"
                        )
                    })?,
                };
                self.parts.insert(fp, Arc::clone(&part));
                *p = PartitionRef::Inline { fp, part };
            }
        }
        Ok(())
    }
}

/// A worker process's control server: one control listener (for the
/// coordinator) plus one data-plane mesh listener (for peer workers),
/// bound together so `Ready` can advertise the data address the moment
/// a coordinator connects.
pub struct WorkerServer {
    control: TcpListener,
    mesh: HostMesh,
    /// Deadline for each control frame once a coordinator is connected;
    /// `None` waits indefinitely between queries (the CLI default — an
    /// idle worker is not an error). A closed connection surfaces
    /// immediately regardless.
    pub idle_timeout: Option<Duration>,
    /// Per-frame size ceiling on the control connection.
    pub frame_limit: u32,
}

impl WorkerServer {
    /// Binds the control listener on `control_addr` and the data-plane
    /// mesh listener on the same interface (ephemeral port).
    ///
    /// # Errors
    /// [`DistError::Io`] when either bind fails.
    pub fn bind(control_addr: &str) -> Result<WorkerServer, DistError> {
        let control = TcpListener::bind(control_addr)
            .map_err(|e| DistError::Io(format!("bind control {control_addr}: {e}")))?;
        let ip = control
            .local_addr()
            .map_err(|e| DistError::Io(format!("control local_addr: {e}")))?
            .ip();
        let mesh = HostMesh::bind(&format!("{ip}:0")).map_err(|e| DistError::Io(e.to_string()))?;
        Ok(WorkerServer {
            control,
            mesh,
            idle_timeout: None,
            frame_limit: DEFAULT_FRAME_LIMIT,
        })
    }

    /// The control address the coordinator should dial.
    ///
    /// # Errors
    /// [`DistError::Io`] when the socket cannot report its address.
    pub fn control_addr(&self) -> Result<SocketAddr, DistError> {
        self.control
            .local_addr()
            .map_err(|e| DistError::Io(e.to_string()))
    }

    /// The data-plane address peers will dial (also what `Ready`
    /// advertises).
    ///
    /// # Errors
    /// [`DistError::Io`] when the socket cannot report its address.
    pub fn data_addr(&self) -> Result<SocketAddr, DistError> {
        self.mesh
            .local_addr()
            .map_err(|e| DistError::Io(e.to_string()))
    }

    /// Mesh-formation policy (dial retries, hello deadline) for the
    /// data plane.
    pub fn handshake_mut(&mut self) -> &mut HandshakeConfig {
        &mut self.mesh.handshake
    }

    /// Receive deadline for established data-plane streams.
    pub fn set_mesh_recv_timeout(&mut self, t: Duration) {
        self.mesh.recv_timeout = t;
    }

    /// Serves exactly one coordinator session: accept, announce
    /// `Ready`, execute fragments until `Shutdown` (clean return) or a
    /// terminal failure.
    ///
    /// Recoverable per-fragment failures — an undecodable fragment, one
    /// that names a partition this worker does not hold, a failed
    /// pre-flight, a bad address book — are reported to the
    /// coordinator in an `Error` frame and the worker keeps serving
    /// (the mesh was never touched). A failure *during* execution also
    /// sends `Error`, but then tears the session down: mid-query mesh
    /// state cannot be trusted for the next round.
    ///
    /// # Errors
    /// [`DistError::Control`] when the coordinator vanishes
    /// mid-session, [`DistError::Timeout`] when `idle_timeout` expires,
    /// [`DistError::Engine`] after an execution failure.
    pub fn serve(mut self) -> Result<(), DistError> {
        let (mut stream, _peer) = self
            .control
            .accept()
            .map_err(|e| DistError::Io(format!("accept coordinator: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| DistError::Io(e.to_string()))?;
        let data_addr = self.data_addr()?.to_string();
        control::write_frame(
            &mut stream,
            FrameKind::Ready,
            &proto::encode_ready(&data_addr),
        )?;
        let mut store = PartitionStore::default();
        loop {
            let (kind, payload) = proto::read_frame_deadline(
                &mut stream,
                self.frame_limit,
                self.idle_timeout,
                "the next control frame from the coordinator",
            )?;
            match kind {
                FrameKind::Fragment => self.run_fragment(&mut stream, &mut store, &payload)?,
                FrameKind::Shutdown => return Ok(()),
                other => {
                    return Err(DistError::Protocol(format!(
                        "coordinator sent {other:?}; workers accept Fragment and Shutdown"
                    )))
                }
            }
        }
    }

    /// Reports a recoverable fragment failure and keeps the session
    /// alive.
    fn refuse(stream: &mut TcpStream, message: String) -> Result<(), DistError> {
        control::write_frame(stream, FrameKind::Error, &proto::encode_error(&message))?;
        Ok(())
    }

    fn run_fragment(
        &mut self,
        stream: &mut TcpStream,
        store: &mut PartitionStore,
        payload: &[u8],
    ) -> Result<(), DistError> {
        let mut frag = match Fragment::decode(payload) {
            Ok(f) => f,
            Err(e) => return Self::refuse(stream, format!("fragment rejected: {e}")),
        };
        if let Err(e) = store.admit(&mut frag) {
            return Self::refuse(stream, e);
        }
        if let Err(e) = frag.preflight() {
            return Self::refuse(stream, format!("fragment failed pre-flight: {e}"));
        }
        let mut peers = Vec::with_capacity(frag.data_addrs.len());
        for a in &frag.data_addrs {
            match a.parse::<SocketAddr>() {
                Ok(addr) => peers.push(addr),
                Err(e) => return Self::refuse(stream, format!("bad data address {a}: {e}")),
            }
        }
        if let Err(e) = self.mesh.join(frag.rank as usize, peers) {
            return Self::refuse(stream, format!("mesh join refused: {e}"));
        }

        // The mesh counters accumulate across queries; report this
        // query's contribution as deltas.
        let tx_bytes0 = self.mesh.obs.tx_bytes.get();
        let rx_bytes0 = self.mesh.obs.rx_bytes.get();
        let tx_batches0 = self.mesh.obs.tx_batches.get();
        let rx_batches0 = self.mesh.obs.rx_batches.get();
        // The executor takes the fragment by value; keep what the reply
        // needs.
        let (rank, batch_tuples) = (frag.rank as usize, frag.batch_tuples as usize);
        let outcome = match execute_fragment(frag, &self.mesh) {
            Ok(o) => o,
            Err(e) => {
                // Report before tearing down so the coordinator gets a
                // typed Worker error, not a surprise EOF.
                let msg = format!("fragment execution failed: {e}");
                control::write_frame(stream, FrameKind::Error, &proto::encode_error(&msg))?;
                return Err(DistError::Engine(e.to_string()));
            }
        };

        let arity = outcome.output.arity();
        if arity == 0 {
            if !outcome.output.is_empty() {
                let mut body = Vec::new();
                encode_vectored(0, outcome.output.len(), &[], false, &mut body);
                control::write_frame(stream, FrameKind::OutputBatch, &body)?;
            }
        } else {
            let per_batch = batch_tuples.max(1) * arity;
            for chunk in outcome.output.raw().chunks(per_batch) {
                let mut body = Vec::new();
                encode_vectored(arity, chunk.len() / arity, chunk, false, &mut body);
                control::write_frame(stream, FrameKind::OutputBatch, &body)?;
            }
        }
        let stats = WorkerStats {
            rank,
            output_tuples: outcome.output.len() as u64,
            tuples_sent: outcome.tuples_sent,
            rounds: outcome.rounds,
            tx_bytes: self.mesh.obs.tx_bytes.get() - tx_bytes0,
            rx_bytes: self.mesh.obs.rx_bytes.get() - rx_bytes0,
            tx_batches: self.mesh.obs.tx_batches.get() - tx_batches0,
            rx_batches: self.mesh.obs.rx_batches.get() - rx_batches0,
        };
        control::write_frame(stream, FrameKind::OutputDone, &proto::encode_done(&stats))?;
        Ok(())
    }
}
