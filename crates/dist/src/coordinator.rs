//! The coordinator side of the control plane: dial every worker, ship
//! per-rank plan fragments, collect streamed results, and reconcile
//! cross-process metrics. It also keeps the books on every worker's
//! partition store, which holds exactly what the latest fragment named:
//! a fragment carries a partition's rows only where the worker does not
//! hold them yet.

use crate::error::DistError;
use crate::proto::{self, WorkerStats};
use parjoin_common::wire::control::{self, FrameKind, DEFAULT_FRAME_LIMIT, HEADER_LEN};
use parjoin_common::wire::decode_frame_into;
use parjoin_common::{Database, Relation, WireFormat};
use parjoin_engine::{
    plan_mesh, Cluster, Fragment, JoinAlg, PartitionRef, PlanOptions, ShuffleAlg,
};
use parjoin_query::ConjunctiveQuery;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One connected worker: its control stream, advertised data-plane
/// address, and what its partition store holds.
struct WorkerLink {
    host: String,
    stream: TcpStream,
    data_addr: String,
    /// Fingerprints of the partitions the worker's store holds: those
    /// the last fragment named, none after an error.
    held: Vec<u128>,
}

/// A mesh of connected worker processes, addressed by rank in
/// connection order. Queries run with [`RemoteCluster::run`] reuse the
/// same worker set — the per-query fragments re-form the data mesh, the
/// control connections persist, and so does each worker's store of the
/// seed partitions earlier fragments shipped it.
pub struct RemoteCluster {
    links: Vec<WorkerLink>,
    /// Per-frame size ceiling on control connections.
    pub frame_limit: u32,
    /// Deadline for each result frame while collecting; `None` waits
    /// indefinitely (queries can legitimately run long — set it when a
    /// hung worker must surface as a typed error instead).
    pub reply_timeout: Option<Duration>,
}

/// Dials `host` until `deadline`, with capped exponential backoff —
/// workers may still be starting when the coordinator comes up.
fn dial_until(host: &str, deadline: Instant) -> Result<TcpStream, DistError> {
    let start = Instant::now();
    let mut backoff = Duration::from_millis(5);
    let mut attempts = 0u32;
    let mut last_err = String::new();
    loop {
        attempts += 1;
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(DistError::Timeout {
                what: format!(
                    "a control connection to worker {host} ({attempts} attempts, last error: \
                     {last_err})"
                ),
                waited: start.elapsed(),
            });
        }
        // Resolve on every attempt so a worker that registers DNS late
        // still gets found.
        let addr = match std::net::ToSocketAddrs::to_socket_addrs(host).map(|mut a| a.next()) {
            Ok(Some(a)) => a,
            Ok(None) => {
                return Err(DistError::Io(format!("{host} resolves to no address")));
            }
            Err(e) => {
                return Err(DistError::Io(format!("resolve {host}: {e}")));
            }
        };
        match TcpStream::connect_timeout(&addr, remaining.min(Duration::from_secs(1))) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = e.to_string(),
        }
        std::thread::sleep(backoff.min(remaining));
        backoff = (backoff * 2).min(Duration::from_millis(200));
    }
}

/// One query's collected result and per-worker tallies.
#[derive(Debug)]
pub struct RemoteRun {
    /// The gathered output, rank-ascending (byte-identical to the
    /// `Transport::Local` gather order).
    pub output: Relation,
    /// Total output tuples before any distinct step (groups, under
    /// `PlanOptions::group_count`).
    pub output_tuples: u64,
    /// Per-worker stats, rank-ascending.
    pub workers: Vec<WorkerStats>,
    /// Control-plane bytes written for the query's fragments, frame
    /// headers included: the seed partitions a worker did not hold yet,
    /// and the plan.
    pub fragment_bytes: u64,
}

impl RemoteRun {
    /// Cross-process metric reconciliation: every byte and batch a rank
    /// placed on the data mesh must have been received by some rank
    /// (the exchange self-loop included), and all ranks must agree on
    /// the round count.
    ///
    /// # Errors
    /// [`DistError::Reconcile`] naming the first tally that does not
    /// balance.
    pub fn reconcile(&self) -> Result<(), DistError> {
        let tx_bytes: u64 = self.workers.iter().map(|w| w.tx_bytes).sum();
        let rx_bytes: u64 = self.workers.iter().map(|w| w.rx_bytes).sum();
        if tx_bytes != rx_bytes {
            return Err(DistError::Reconcile(format!(
                "runtime.tx.bytes {tx_bytes} != runtime.rx.bytes {rx_bytes}"
            )));
        }
        let tx_batches: u64 = self.workers.iter().map(|w| w.tx_batches).sum();
        let rx_batches: u64 = self.workers.iter().map(|w| w.rx_batches).sum();
        if tx_batches != rx_batches {
            return Err(DistError::Reconcile(format!(
                "runtime.tx.batches {tx_batches} != runtime.rx.batches {rx_batches}"
            )));
        }
        if let Some(first) = self.workers.first() {
            for w in &self.workers {
                if w.rounds != first.rounds {
                    return Err(DistError::Reconcile(format!(
                        "rank {} ran {} exchange rounds, rank {} ran {}",
                        first.rank, first.rounds, w.rank, w.rounds
                    )));
                }
            }
        }
        Ok(())
    }
}

impl RemoteCluster {
    /// Dials every worker's control address (retrying until `timeout`)
    /// and reads its `Ready` announcement. `hosts[r]` becomes rank `r`.
    ///
    /// # Errors
    /// [`DistError::Timeout`] when a worker never comes up,
    /// [`DistError::Control`] / [`DistError::Protocol`] when one speaks
    /// the wrong protocol.
    pub fn connect(hosts: &[String], timeout: Duration) -> Result<RemoteCluster, DistError> {
        let deadline = Instant::now() + timeout;
        let mut links = Vec::with_capacity(hosts.len());
        for host in hosts {
            let mut stream = dial_until(host, deadline)?;
            stream
                .set_nodelay(true)
                .map_err(|e| DistError::Io(e.to_string()))?;
            let remaining = deadline.saturating_duration_since(Instant::now());
            let (kind, payload) = proto::read_frame_deadline(
                &mut stream,
                DEFAULT_FRAME_LIMIT,
                Some(remaining.max(Duration::from_millis(1))),
                &format!("the Ready announcement from worker {host}"),
            )?;
            if kind != FrameKind::Ready {
                return Err(DistError::Protocol(format!(
                    "worker {host} opened with {kind:?}, expected Ready"
                )));
            }
            let data_addr = proto::decode_ready(&payload)?;
            links.push(WorkerLink {
                host: host.clone(),
                stream,
                data_addr,
                held: Vec::new(),
            });
        }
        Ok(RemoteCluster {
            links,
            frame_limit: DEFAULT_FRAME_LIMIT,
            reply_timeout: None,
        })
    }

    /// The number of connected workers (the mesh width queries must
    /// match).
    pub fn workers(&self) -> usize {
        self.links.len()
    }

    /// Plans `query` exactly as the local engine would, ships one
    /// fragment per rank, and collects the streamed results
    /// rank-ascending. `cluster.workers` must equal
    /// [`RemoteCluster::workers`]; plan decisions (join order, shares,
    /// probe threads, seeds) all come from `cluster`/`opts` just like
    /// `run_config`. A rank's fragment carries the rows of only the
    /// partitions its worker does not hold yet.
    ///
    /// # Errors
    /// [`DistError::Engine`] when planning fails,
    /// [`DistError::Worker`] when a rank refuses or fails its fragment,
    /// [`DistError::Control`] / [`DistError::Timeout`] when a rank
    /// disappears or stalls mid-collection.
    pub fn run(
        &mut self,
        query: &ConjunctiveQuery,
        db: &Database,
        cluster: &Cluster,
        shuffle_alg: ShuffleAlg,
        join_alg: JoinAlg,
        opts: &PlanOptions,
    ) -> Result<RemoteRun, DistError> {
        if cluster.workers != self.links.len() {
            return Err(DistError::Protocol(format!(
                "cluster of {} workers over a mesh of {} worker processes",
                cluster.workers,
                self.links.len()
            )));
        }
        let data_addrs: Vec<String> = self.links.iter().map(|l| l.data_addr.clone()).collect();
        let mesh = plan_mesh(query, db, cluster, shuffle_alg, join_alg, opts, &data_addrs)?;
        let frags: Vec<Fragment> = (self.links.iter().enumerate())
            .map(|(rank, link)| mesh.fragment(rank, |fp| link.held.contains(&fp)))
            .collect();
        // Under `group_count` every rank returns `(head…, count)` rows.
        let arity = query.output_vars().len() + usize::from(opts.group_count);
        let run = self.ship(&frags, arity);
        // A store now holds exactly what its fragment named; after an
        // error what it holds is unknown, so the next fragment carries
        // every partition inline.
        for (link, frag) in self.links.iter_mut().zip(&frags) {
            link.held = match run {
                Ok(_) => frag.parts.iter().map(PartitionRef::fingerprint).collect(),
                Err(_) => Vec::new(),
            };
        }
        let run = run?;
        Ok(RemoteRun {
            output: if opts.distinct_output {
                run.output.distinct()
            } else {
                run.output
            },
            ..run
        })
    }

    /// Writes one fragment per rank and collects every rank's reply of
    /// `arity`-column output, rank-ascending. A rank's refusal leaves
    /// its control stream in step, so the others' replies are still
    /// read; the first refusal is returned.
    fn ship(&mut self, frags: &[Fragment], arity: usize) -> Result<RemoteRun, DistError> {
        let mut fragment_bytes = 0;
        for (link, frag) in self.links.iter_mut().zip(frags) {
            let payload = frag.encode();
            fragment_bytes += (HEADER_LEN + payload.len()) as u64;
            control::write_frame(&mut link.stream, FrameKind::Fragment, &payload)?;
        }

        let mut output = Relation::new(arity);
        let mut workers = Vec::with_capacity(self.links.len());
        let mut refused = None;
        for (rank, link) in self.links.iter_mut().enumerate() {
            loop {
                let (kind, payload) = proto::read_frame_deadline(
                    &mut link.stream,
                    self.frame_limit,
                    self.reply_timeout,
                    &format!("result frames from rank {rank} ({})", link.host),
                )?;
                match kind {
                    FrameKind::OutputBatch => {
                        decode_frame_into(WireFormat::Vectored, &payload, &mut output).map_err(
                            |e| DistError::Protocol(format!("rank {rank} sent a bad batch: {e}")),
                        )?;
                    }
                    FrameKind::OutputDone => {
                        workers.push(proto::decode_done(rank, &payload)?);
                        break;
                    }
                    FrameKind::Error => {
                        let message = proto::decode_error(&payload)?;
                        refused.get_or_insert(DistError::Worker { rank, message });
                        break;
                    }
                    other => {
                        return Err(DistError::Protocol(format!(
                            "rank {rank} sent {other:?} while results were expected"
                        )))
                    }
                }
            }
        }
        if let Some(err) = refused {
            return Err(err);
        }
        Ok(RemoteRun {
            output_tuples: workers.iter().map(|w| w.output_tuples).sum(),
            output,
            workers,
            fragment_bytes,
        })
    }

    /// Sends `Shutdown` to every worker and drops the connections;
    /// workers exit their serve loop cleanly.
    ///
    /// # Errors
    /// [`DistError::Control`] when a goodbye cannot be delivered (the
    /// worker is likely already gone).
    pub fn shutdown(mut self) -> Result<(), DistError> {
        for link in &mut self.links {
            control::write_frame(&mut link.stream, FrameKind::Shutdown, &[])?;
        }
        Ok(())
    }
}
