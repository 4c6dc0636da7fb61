//! Mesh fault injection: every way a worker or coordinator can
//! disappear must surface as a *typed* `DistError` within its
//! configured deadline — never a hang. Each scenario runs under a
//! watchdog thread; a scenario that wedges fails the test instead of
//! wedging the suite.

use parjoin_common::wire::control::{self, ControlError, FrameKind};
use parjoin_dist::{proto, DistError, RemoteCluster, WorkerServer};
use parjoin_engine::{Cluster, JoinAlg, PlanOptions, ShuffleAlg};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Runs `f` on its own thread and panics if it does not finish within
/// `deadline` — the suite's no-hangs guarantee is itself enforced.
fn watchdog<T: Send + 'static>(deadline: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        // A send can only fail if the watchdog already gave up; the
        // panic below has the better message.
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(deadline)
        .unwrap_or_else(|_| panic!("scenario hung past its {deadline:?} watchdog"));
    handle.join().expect("scenario thread");
    out
}

/// A port that refuses connections: bind a listener, note the port,
/// drop it.
fn dead_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = l.local_addr().expect("addr").to_string();
    drop(l);
    addr
}

/// A worker that never comes up surfaces as `Timeout` (with the dial
/// history in its message), within the connect deadline.
#[test]
fn worker_never_connects() {
    let err = watchdog(Duration::from_secs(10), || {
        let start = Instant::now();
        let err = match RemoteCluster::connect(&[dead_addr()], Duration::from_millis(300)) {
            Err(e) => e,
            Ok(_) => panic!("nothing is listening, connect cannot succeed"),
        };
        (err, start.elapsed())
    });
    let (err, waited) = err;
    match &err {
        DistError::Timeout { what, .. } => {
            assert!(what.contains("attempts"), "no dial history in: {what}");
        }
        other => panic!("expected Timeout, got {other}"),
    }
    assert!(
        waited < Duration::from_secs(5),
        "gave up only after {waited:?}"
    );
}

/// A worker that accepts, announces `Ready`, and dies before serving
/// its fragment surfaces as a typed control/IO error — the coordinator
/// notices the vanished peer instead of waiting forever.
#[test]
fn worker_dies_between_hello_and_first_frame() {
    let err = watchdog(Duration::from_secs(20), || {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let fake = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            control::write_frame(
                &mut s,
                FrameKind::Ready,
                &proto::encode_ready("127.0.0.1:1"),
            )
            .expect("ready");
            // Die: drop the control connection without serving anything.
        });

        let mut remote = RemoteCluster::connect(&[addr], Duration::from_secs(5)).expect("connect");
        remote.reply_timeout = Some(Duration::from_secs(2));
        fake.join().expect("fake worker");

        let spec = parjoin_datagen::workloads::q1();
        let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 7);
        let cluster = Cluster::new(1).with_seed(11);
        remote
            .run(
                &spec.query,
                &db,
                &cluster,
                ShuffleAlg::Regular,
                JoinAlg::Hash,
                &PlanOptions::default(),
            )
            .expect_err("the worker is gone")
    });
    assert!(
        matches!(
            err,
            DistError::Control(_) | DistError::Io(_) | DistError::Timeout { .. }
        ),
        "expected a typed disconnect, got {err}"
    );
}

/// Builds a frame as a peer speaking PJCP `version` would send it.
fn old_frame(version: u16, kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    control::write_frame(&mut frame, kind, payload).expect("write");
    frame[4..6].copy_from_slice(&version.to_le_bytes());
    frame
}

/// PJCP version 3 gave the fragment's flags byte two more bits
/// (`skew_resilient`, `group_count`), which change how many exchange
/// rounds a rank runs and what it returns; version 4 names partitions by
/// fingerprint, so an older worker would read a resident name as rows.
/// A version-2 or version-3 peer on either end of the control connection
/// is refused by version, typed, before any payload is read.
#[test]
fn older_peers_are_refused_by_version() {
    use std::io::Write;
    for version in [2, 3] {
        let want = ControlError::UnsupportedVersion {
            got: version,
            supported: control::VERSION,
        };

        // An old worker announcing itself to this coordinator.
        let err = watchdog(Duration::from_secs(10), move || {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr").to_string();
            let fake = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().expect("accept");
                let ready = proto::encode_ready("127.0.0.1:1");
                s.write_all(&old_frame(version, FrameKind::Ready, &ready))
                    .expect("ready");
            });
            let err = match RemoteCluster::connect(&[addr], Duration::from_secs(5)) {
                Err(e) => e,
                Ok(_) => panic!("a version-{version} worker must not be admitted"),
            };
            fake.join().expect("fake worker");
            err
        });
        assert!(
            matches!(&err, DistError::Control(e) if *e == want),
            "coordinator side, version {version}: {err}"
        );

        // An old coordinator shipping a fragment to this worker.
        let err = watchdog(Duration::from_secs(10), move || {
            let server = WorkerServer::bind("127.0.0.1:0").expect("bind");
            let addr = server.control_addr().expect("addr");
            let serving = std::thread::spawn(move || server.serve());
            let mut s = std::net::TcpStream::connect(addr).expect("connect");
            let (kind, _) =
                control::read_frame(&mut s, control::DEFAULT_FRAME_LIMIT).expect("ready");
            assert_eq!(kind, FrameKind::Ready);
            s.write_all(&old_frame(version, FrameKind::Fragment, b"old fragment"))
                .expect("fragment");
            serving
                .join()
                .expect("worker thread")
                .expect_err("an old fragment must end the session")
        });
        assert!(
            matches!(&err, DistError::Control(e) if *e == want),
            "worker side, version {version}: {err}"
        );
    }
}

/// A coordinator that vanishes mid-session surfaces on the worker as a
/// typed control error (a closed socket is `Truncated`, not a timeout
/// and not a hang).
#[test]
fn coordinator_vanishes_mid_session() {
    let err = watchdog(Duration::from_secs(10), || {
        let server = WorkerServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.control_addr().expect("addr").to_string();
        let serving = std::thread::spawn(move || server.serve());

        let remote = RemoteCluster::connect(&[addr], Duration::from_secs(5)).expect("connect");
        // Vanish without a Shutdown frame.
        drop(remote);

        serving
            .join()
            .expect("worker thread")
            .expect_err("a vanished coordinator is an error, not a clean exit")
    });
    assert!(
        matches!(err, DistError::Control(_)),
        "expected a truncated-frame control error, got {err}"
    );
}

/// A coordinator that connects but never speaks trips the worker's idle
/// deadline as a typed `Timeout` naming what it was waiting for.
#[test]
fn silent_coordinator_trips_idle_timeout() {
    let err = watchdog(Duration::from_secs(10), || {
        let mut server = WorkerServer::bind("127.0.0.1:0").expect("bind");
        server.idle_timeout = Some(Duration::from_millis(200));
        let addr = server.control_addr().expect("addr").to_string();
        let serving = std::thread::spawn(move || server.serve());

        let _remote = RemoteCluster::connect(&[addr], Duration::from_secs(5)).expect("connect");
        // Keep the connection open but send nothing.
        serving
            .join()
            .expect("worker thread")
            .expect_err("silence must trip the idle deadline")
    });
    match err {
        DistError::Timeout { what, waited } => {
            assert!(what.contains("control frame"), "vague timeout: {what}");
            assert!(waited < Duration::from_secs(5), "waited {waited:?}");
        }
        other => panic!("expected Timeout, got {other}"),
    }
}

/// A fragment whose address book names an unreachable data peer fails
/// mesh formation on the worker within the handshake deadline, and the
/// coordinator receives it as a typed `Worker` error naming the rank —
/// query execution faults cross the control plane instead of hanging
/// both sides.
#[test]
fn unreachable_data_peer_fails_within_handshake_deadline() {
    let (rank_err, waited) = watchdog(Duration::from_secs(30), || {
        // Rank 0 is real; rank 1 is a control-plane impostor whose
        // advertised data address refuses connections, so rank 0's mesh
        // formation must fail.
        let mut real = WorkerServer::bind("127.0.0.1:0").expect("bind");
        real.handshake_mut().connect_attempts = 3;
        real.handshake_mut().backoff_cap = Duration::from_millis(10);
        real.handshake_mut().handshake_timeout = Duration::from_millis(500);
        let real_addr = real.control_addr().expect("addr").to_string();
        let real_serving = std::thread::spawn(move || real.serve());

        let impostor = TcpListener::bind("127.0.0.1:0").expect("bind");
        let impostor_addr = impostor.local_addr().expect("addr").to_string();
        let bogus_data = dead_addr();
        let impostor_thread = std::thread::spawn(move || {
            let (mut s, _) = impostor.accept().expect("accept");
            control::write_frame(&mut s, FrameKind::Ready, &proto::encode_ready(&bogus_data))
                .expect("ready");
            // Swallow the fragment, then report failure like a worker
            // whose mesh join died, and keep the socket open so the
            // coordinator's typed error comes from rank 0's report.
            let _ = control::read_frame(&mut s, u32::MAX >> 1);
            let _ = control::write_frame(
                &mut s,
                FrameKind::Error,
                &proto::encode_error("impostor: no data plane"),
            );
            std::thread::sleep(Duration::from_secs(5));
        });

        let mut remote =
            RemoteCluster::connect(&[real_addr, impostor_addr], Duration::from_secs(5))
                .expect("connect");
        remote.reply_timeout = Some(Duration::from_secs(10));

        let spec = parjoin_datagen::workloads::q1();
        let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 7);
        let cluster = Cluster::new(2).with_seed(11);
        let start = Instant::now();
        let err = remote
            .run(
                &spec.query,
                &db,
                &cluster,
                ShuffleAlg::Regular,
                JoinAlg::Hash,
                &PlanOptions {
                    collect_output: true,
                    ..Default::default()
                },
            )
            .expect_err("rank 0 cannot form the data mesh");
        let waited = start.elapsed();
        // The real worker tore down after its execution failure (by
        // design: mid-query mesh state is not trusted), and the
        // impostor exits with its sleep.
        let _ = real_serving.join().expect("real worker thread");
        drop(impostor_thread);
        (err, waited)
    });
    match &rank_err {
        DistError::Worker { rank, message } => {
            assert_eq!(*rank, 0, "the real worker is rank 0");
            assert!(
                message.contains("execution failed") || message.contains("mesh"),
                "unhelpful worker error: {message}"
            );
        }
        other => panic!("expected Worker, got {other}"),
    }
    assert!(
        waited < Duration::from_secs(20),
        "mesh failure took {waited:?} to surface"
    );
}
